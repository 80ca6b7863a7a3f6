"""The dpkg installed-package database inside an image filesystem.

State lives where dpkg keeps it: ``/var/lib/dpkg/status`` (control stanzas
of every installed package) and ``/var/lib/dpkg/info/<name>.list`` (the
file list of each package).  coMtainer's front-end parses these paths out
of the *image* to recover the dependency list and the file→package mapping
its image model needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memo import ContentMemo
from repro.pkg.package import Package
from repro.vfs import Directory, FileContent, RegularFile, Symlink, VirtualFilesystem

STATUS_PATH = "/var/lib/dpkg/status"
INFO_DIR = "/var/lib/dpkg/info"


class DpkgDatabase:
    """In-memory view of installed packages + their file lists."""

    def __init__(self) -> None:
        self._packages: Dict[str, Package] = {}
        self._file_lists: Dict[str, List[str]] = {}
        # Incremental persistence state: control stanzas are cached per
        # package and ``.list`` files are only rewritten for packages
        # touched since the last write_to on the same filesystem.
        self._control_cache: Dict[str, str] = {}
        self._dirty_lists: set = set()
        self._lists_fs: Optional[VirtualFilesystem] = None

    def __len__(self) -> int:
        return len(self._packages)

    def __contains__(self, name: str) -> bool:
        return name in self._packages

    def names(self) -> List[str]:
        return sorted(self._packages)

    def get(self, name: str) -> Package:
        return self._packages[name]

    def try_get(self, name: str) -> Optional[Package]:
        return self._packages.get(name)

    def packages(self) -> List[Package]:
        return [self._packages[name] for name in self.names()]

    def file_list(self, name: str) -> List[str]:
        return list(self._file_lists.get(name, []))

    def add(self, package: Package, file_paths: Optional[List[str]] = None) -> None:
        self._packages[package.name] = package
        if file_paths is None:
            file_paths = [f.path for f in package.files]
        self._file_lists[package.name] = sorted(file_paths)
        self._control_cache.pop(package.name, None)
        self._dirty_lists.add(package.name)

    def remove(self, name: str) -> None:
        self._packages.pop(name, None)
        self._file_lists.pop(name, None)
        self._control_cache.pop(name, None)
        self._dirty_lists.discard(name)

    def owner_of(self, path: str) -> Optional[str]:
        for name, files in self._file_lists.items():
            if path in files:
                return name
        return None

    def file_index(self) -> Dict[str, str]:
        """Map every packaged path to its owning package name."""
        index: Dict[str, str] = {}
        for name in self.names():
            for path in self._file_lists.get(name, []):
                index[path] = name
        return index

    def provides_index(self) -> Dict[str, str]:
        """Map every provided (virtual or real) name to the provider."""
        index: Dict[str, str] = {}
        for pkg in self.packages():
            for provided in pkg.provides_names():
                index.setdefault(provided, pkg.name)
        return index

    # ------------------------------------------------------------------
    # filesystem persistence
    # ------------------------------------------------------------------

    def write_to(self, fs: VirtualFilesystem) -> None:
        stanzas = []
        for name in self.names():
            text = self._control_cache.get(name)
            if text is None:
                text = self._packages[name].to_control()
                self._control_cache[name] = text
            stanzas.append(text)
        fs.write_file(STATUS_PATH, "\n\n".join(stanzas) + "\n", create_parents=True)
        fs.makedirs(INFO_DIR)
        # A filesystem seen before only needs the lists touched since the
        # last write; any other target gets the full set.
        if fs is self._lists_fs:
            to_write = sorted(n for n in self._dirty_lists if n in self._packages)
        else:
            to_write = self.names()
            self._lists_fs = fs
        for name in to_write:
            listing = "\n".join(self._file_lists.get(name, [])) + "\n"
            fs.write_file(f"{INFO_DIR}/{name}.list", listing, create_parents=True)
        self._dirty_lists.clear()

    @staticmethod
    def read_from(fs: VirtualFilesystem) -> "DpkgDatabase":
        """Parse the database out of *fs*.

        The parse is memoized by content digest: the status file's digest
        keys its parsed packages, each ``.list`` file's digest keys its
        paths, and each stanza's text keys its :class:`Package`.  Content
        providers are shared between copy-on-write clones, so a clone of
        an image re-reads its database without parsing a line.  A
        :class:`Package` is never mutated after construction, so every
        database shares it; the returned database still has dicts of its
        own, so a caller's ``add``/``remove`` never reaches a later read.
        """
        db = DpkgDatabase()
        if not fs.exists(STATUS_PATH):
            return db
        status = fs.file_content(STATUS_PATH)
        info = fs.try_get_node(INFO_DIR)
        lists = info.children if isinstance(info, Directory) else {}
        for package in _STATUSES.get(status.digest, lambda: _parse_status(status)):
            content = _list_content(fs, lists, package.name)
            files = () if content is None else _LISTS.get(
                content.digest, lambda: _parse_list(content))
            db.add(package, file_paths=files)
        return db


#: Parsed packages by status-file digest, file lists by ``.list`` digest,
#: and packages by stanza text (so a status never seen before still
#: shares the packages of the stanzas it has in common with others).
_STATUSES: "ContentMemo[Tuple[Package, ...]]" = ContentMemo(cap=256)
_LISTS: "ContentMemo[Tuple[str, ...]]" = ContentMemo(cap=4096)
_STANZAS: "ContentMemo[Package]" = ContentMemo(cap=4096)


def _parse_status(status: FileContent) -> Tuple[Package, ...]:
    return tuple(
        _STANZAS.get(stanza, lambda: Package.from_control(stanza))
        for stanza in status.read().decode("utf-8").split("\n\n")
        if stanza.strip()
    )


def _parse_list(content: FileContent) -> Tuple[str, ...]:
    text = content.read().decode("utf-8")
    return tuple(line for line in text.splitlines() if line.strip())


def _list_content(fs: VirtualFilesystem, lists, name: str) -> Optional[FileContent]:
    """Content of *name*'s ``.list`` file in the info directory *lists*."""
    node = lists.get(f"{name}.list")
    if isinstance(node, Symlink):
        node = fs.try_get_node(f"{INFO_DIR}/{name}.list")
    return node.content if isinstance(node, RegularFile) else None
