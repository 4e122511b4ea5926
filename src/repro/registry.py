"""Name -> object resolution shared by the workload and arch registries.

Every LTRF grid point names a workload and an SM design point, and
both resolve through the one mechanism defined here.  A name resolves,
lazily, through:

1. **Registered providers** -- explicit name -> :class:`Provider`
   entries (the paper suite's specs, the built-in design points, and
   files registered under a short name);
2. whatever a subclass adds in front of the file rule (the workload
   registry's scenario families);
3. **Files** -- any name ending in ``.json`` loads through the
   subclass's ``load``.

Resolution is pure in the name: a pool worker that receives only the
name string rebuilds the identical object.  Built objects are memoised
per registry, with stat-signature invalidation for file-backed names,
so a rewritten file can never be served (or, through the fingerprint
the caller derives from the returned object, cache-keyed) with stale
content.

Unknown names raise the subclass's :class:`UnknownNameError` carrying
nearest-match suggestions (difflib), which the CLI surfaces instead of
a stack trace.
"""

from __future__ import annotations

import difflib
import os
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

#: Resolution accepts any ``.json`` name as a file path -- the rule
#: must be decidable from the name alone so pool workers resolve
#: identically -- and no registered name, scenario instance or design
#: point can legitimately end in ``.json``.
FILE_NAME_SUFFIX = ".json"


def is_file_name(name: str) -> bool:
    """True when ``name`` routes to a registry's file loader."""
    return name.endswith(FILE_NAME_SUFFIX)


class UnknownNameError(ValueError):
    """An unresolvable name, with nearest-name suggestions.

    Subclasses set ``kind`` (the default noun in the message) and
    ``hints`` (kind -> what to run or pass instead).
    """

    kind: str
    hints: Dict[str, str]

    def __init__(self, name: str, suggestions: List[str],
                 known: List[str], kind: Optional[str] = None) -> None:
        self.name = name
        self.suggestions = suggestions
        self.known = known
        self.kind = kind or self.kind
        message = f"unknown {self.kind} {name!r}"
        if suggestions:
            message += "; did you mean: " + ", ".join(suggestions) + "?"
        super().__init__(f"{message}  ({self.hints[self.kind]})")

    def __reduce__(self):
        # Exception pickling reconstructs from Exception.args (the
        # formatted message), which does not match this __init__
        # signature; without this, a pool worker raising the error
        # takes the whole executor down as BrokenProcessPool.
        return (type(self),
                (self.name, self.suggestions, self.known, self.kind))


class Provider:
    """Lazy source of one named object.

    ``path`` is set when the object is read from a file, whose stat
    signature then guards the memo.  ``category`` is the workload
    category when a provider knows it without building (``None``
    otherwise, and always for architectures).
    """

    def __init__(self, name: str, source: str, build: Callable[[], Any],
                 description: str = "", category: Optional[str] = None,
                 path: Optional[str] = None) -> None:
        self.name = name
        self.source = source
        self.build = build
        self.description = description
        self.category = category
        self.path = path

    def __repr__(self) -> str:
        return f"Provider({self.name!r}, source={self.source!r})"


class Registry:
    """Name -> object resolution with lazy providers and a memo.

    Subclasses set ``error`` (their :class:`UnknownNameError`),
    ``load`` (path -> object, as a ``staticmethod``) and ``file_kind``
    (how a file-backed entry describes itself), and define ``resolve``.
    """

    error: Type[UnknownNameError]
    load: Callable[[str], Any]
    file_kind: str

    def __init__(self) -> None:
        self._providers: Dict[str, Provider] = {}
        self._built: Dict[str, Any] = {}
        # name -> (path, stat signature) for file-backed names, so a
        # rewritten file invalidates the memo (see _get).
        self._file_sources: Dict[str, Tuple[str, Tuple[int, int, int]]] = {}

    # -- registration -----------------------------------------------------

    def register(self, provider: Provider,
                 replace: bool = False) -> Provider:
        if not replace and provider.name in self._providers:
            raise ValueError(
                f"{self.error.kind} {provider.name!r} is already registered"
            )
        self._providers[provider.name] = provider
        self._forget(provider.name)
        return provider

    def register_file(self, path: str, name: Optional[str] = None,
                      replace: bool = False) -> Provider:
        return self.register(self._file_provider(path, name),
                             replace=replace)

    def _file_provider(self, path: str,
                       name: Optional[str] = None) -> Provider:
        return Provider(name if name is not None else path, "file",
                        lambda: self.load(path),
                        description=f"{self.file_kind} {path}", path=path)

    # -- listing ----------------------------------------------------------

    def names(self) -> List[str]:
        """Registered provider names, in registration order."""
        return list(self._providers)

    def provider(self, name: str) -> Provider:
        """Resolve ``name`` without building its object."""
        found = self._providers.get(name)
        if found is not None:
            return found
        if is_file_name(name):
            return self._file_provider(name)
        raise self.error(name, self._suggestions(name), self.names())

    def _suggestions(self, name: str) -> List[str]:
        return difflib.get_close_matches(name, self.names(), n=3,
                                         cutoff=0.5)

    # -- materialisation --------------------------------------------------

    @staticmethod
    def _file_signature(path: str) -> Optional[Tuple[int, int, int]]:
        try:
            status = os.stat(path)
        except OSError:
            return None
        return (status.st_mtime_ns, status.st_size, status.st_ino)

    def _forget(self, name: str) -> None:
        self._built.pop(name, None)
        self._file_sources.pop(name, None)

    def _build(self, name: str, provider: Provider) -> Any:
        return provider.build()

    def _get(self, name: str) -> Any:
        """Build (and memoise) the object behind ``name``.

        Names are just lookup handles; a file-backed name's content
        lives on disk and can change under a long-lived process.
        Serving the old object then would be exactly the
        silently-wrong-results hazard the fingerprinted cache key
        exists to prevent, so a changed stat signature drops the memo.
        """
        source = self._file_sources.get(name)
        if source and self._file_signature(source[0]) != source[1]:
            self._forget(name)
        if name in self._built:
            return self._built[name]
        provider = self.provider(name)
        if provider.path is None:
            built = self._built[name] = self._build(name, provider)
            return built
        # Capture the stat signature *before* reading: if the file is
        # replaced mid-read we re-validate on the next lookup.
        signature = self._file_signature(provider.path)
        built = self._build(name, provider)
        if signature is None:
            # The pre-read stat raced with the file's creation; the
            # read succeeded, so a re-stat normally works.
            signature = self._file_signature(provider.path)
        if signature is None:
            # Still unstattable: memoising would pin this content
            # forever with no way to detect a rewrite.
            return built
        self._built[name] = built
        self._file_sources[name] = (provider.path, signature)
        return built

    def fingerprint(self, name: str) -> str:
        """Content fingerprint of the object behind ``name``."""
        return self.resolve(name)[1]
