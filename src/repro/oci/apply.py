"""Applying layers onto a virtual filesystem.

This is the layer-application half of the "POSIX file system simulator"
the paper needs to compute an image's final filesystem state: entries are
applied in order; whiteouts delete, opaque markers clear directories, and
later layers shadow earlier ones.

Layer application is on the hot path of every adaptation (each rebuild
re-flattens the extended image stack), so two optimizations apply here:

* :class:`_LayerApplier` keeps a directory cache across the entries of a
  layer, so the common run of file entries sharing a parent directory
  resolves that directory once instead of once per entry.  Entries that
  can change path resolution (whiteouts, opaque markers, symlinks,
  anything replacing a directory) conservatively drop the cache —
  correctness over speed for the rare kinds.
* :func:`flatten_layers` memoizes the tree of every stack prefix by its
  layer-digest tuple.  A coMtainer step only appends a layer to an image,
  so a new stack costs a copy-on-write clone of its memoized parent stack
  plus one :func:`apply_layer`, and a repeat stack costs one clone.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.memo import ContentMemo
from repro.oci.layer import (
    KIND_DIR,
    KIND_FILE,
    KIND_OPAQUE,
    KIND_SYMLINK,
    KIND_WHITEOUT,
    Layer,
)
from repro.vfs import Directory, RegularFile, VirtualFilesystem
from repro.vfs import paths as vpath


class _LayerApplier:
    """Applies layer entries with a persistent resolved-directory cache.

    The cache maps *as-written* dirname strings to writable
    :class:`Directory` nodes.  Because two different strings can resolve to
    the same directory through symlinks, invalidation never tries to be
    clever about aliases: any entry that might change resolution (or
    detach a cached node) clears the whole cache.
    """

    def __init__(self, fs: VirtualFilesystem) -> None:
        self.fs = fs
        self._dirs: Dict[str, Directory] = {}

    def _parent(self, path: str) -> tuple:
        dirpath = vpath.dirname(path)
        parent = self._dirs.get(dirpath)
        if parent is None:
            parent = self.fs.writable_dir(dirpath, create=True)
            self._dirs[dirpath] = parent
        return parent, vpath.basename(path)

    def apply_entry(self, entry) -> None:
        fs = self.fs
        kind = entry.kind
        if kind == KIND_FILE:
            assert entry.content is not None
            parent, name = self._parent(entry.path)
            existing = parent.children.get(name)
            if existing is not None and not isinstance(existing, RegularFile):
                # Replacing a directory or symlink can invalidate cached
                # resolutions (including via aliases we cannot see).
                self._dirs.clear()
                fs.remove(entry.path, recursive=True, missing_ok=True)
                parent, name = self._parent(entry.path)
            parent.children[name] = RegularFile(
                mode=entry.mode, mtime=entry.mtime, content=entry.content
            )
        elif kind == KIND_WHITEOUT:
            node = fs.try_get_node(entry.path, follow_symlinks=False)
            if node is not None and not isinstance(node, RegularFile):
                self._dirs.clear()
            fs.remove(entry.path, recursive=True, missing_ok=True)
        elif kind == KIND_OPAQUE:
            node = fs.try_get_node(entry.path, follow_symlinks=False)
            self._dirs.clear()
            if isinstance(node, Directory):
                fs.writable_dir(entry.path).children.clear()
            else:
                fs.remove(entry.path, recursive=True, missing_ok=True)
                fs.makedirs(entry.path)
        elif kind == KIND_DIR:
            node = fs.try_get_node(entry.path, follow_symlinks=False)
            if isinstance(node, Directory):
                fs.writable_dir(entry.path).mode = entry.mode
            else:
                if node is not None:
                    self._dirs.clear()
                fs.remove(entry.path, recursive=True, missing_ok=True)
                fs.makedirs(entry.path, mode=entry.mode)
        elif kind == KIND_SYMLINK:
            self._dirs.clear()
            fs.remove(entry.path, recursive=True, missing_ok=True)
            fs.symlink(entry.link_target, entry.path, create_parents=True)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown layer entry kind: {entry.kind!r}")


def apply_layer(fs: VirtualFilesystem, layer: Layer) -> VirtualFilesystem:
    """Apply *layer*'s entries to *fs* in order; returns *fs* for chaining."""
    applier = _LayerApplier(fs)
    for entry in layer.entries:
        applier.apply_entry(entry)
    return fs


# Flattened trees keyed by the layer-digest tuple of a stack or stack
# prefix.  Entries are private snapshots that are never mutated: a lookup
# hands out a copy-on-write clone, and a longer stack is built on a clone
# of its prefix's entry.
_FLATTEN_MEMO: "ContentMemo[VirtualFilesystem]" = ContentMemo(cap=64)


def flatten_memo_clear() -> None:
    """Drop all memoized flatten results (test isolation hook)."""
    _FLATTEN_MEMO.clear()


def flatten_layers(layers: Iterable[Layer]) -> VirtualFilesystem:
    """Compute the final filesystem state of an ordered layer stack.

    The tree of every prefix of the stack is memoized by its layer-digest
    tuple, so only the layers above the longest memoized prefix are
    applied, each on a copy-on-write clone of the tree below it.  A
    layer's digest covers the canonical identity of every entry (content
    by digest), so equal keys imply equal trees.  Returns a private clone.
    """
    stack: List[Layer] = list(layers)
    key = tuple(layer.digest for layer in stack)
    depth = len(stack)
    while depth and key[:depth] not in _FLATTEN_MEMO:
        depth -= 1
    fs = _FLATTEN_MEMO.get(key[:depth], VirtualFilesystem)
    for layer in stack[depth:]:
        depth += 1
        fs = _FLATTEN_MEMO.get(
            key[:depth], lambda below=fs, top=layer: apply_layer(below.clone(), top)
        )
    return fs.clone()
