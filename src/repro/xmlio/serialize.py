"""Serialize weighted trees back to XML text.

The dataset generators build :class:`~repro.tree.node.Tree` objects
directly; serializing them to markup and re-parsing exercises the full
parser path and lets examples work with real files. Attribute nodes are
emitted as attributes, text nodes as character data.
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterator, Optional, Union
from xml.sax.saxutils import escape, quoteattr

from repro.errors import XmlFormatError
from repro.tree.node import NodeKind, Tree, TreeNode


def tree_to_xml(tree: Tree, declaration: bool = True) -> str:
    """Render the tree as an XML string."""
    out = io.StringIO()
    if declaration:
        out.write('<?xml version="1.0" encoding="UTF-8"?>')
    _write_node(out, tree.root)
    return out.getvalue()


def write_xml(tree: Tree, path: Union[str, os.PathLike, IO[str]]) -> None:
    """Serialize the tree into a file (path or text stream)."""
    text = tree_to_xml(tree)
    if hasattr(path, "write"):
        path.write(text)  # type: ignore[union-attr]
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


#: character data keeps its carriage returns only as a character
#: reference: a literal CR (or CR LF) is normalized to LF on reparse
#: (attribute values are safe — ``quoteattr`` writes ``&#13;`` itself)
_TEXT_ENTITIES = {"\r": "&#13;"}


def _write_node(out: io.StringIO, root: TreeNode) -> None:
    # Iterative serializer: one frame per open element, holding an
    # iterator over its content children so each list is walked once.
    write = out.write
    frames: list[tuple[Optional[TreeNode], Iterator[TreeNode]]] = [(None, iter((root,)))]
    while frames:
        parent, rest = frames[-1]
        node = next(rest, None)
        if node is None:
            frames.pop()
            if parent is not None:
                write(f"</{parent.label}>")
            continue
        if node.kind is NodeKind.TEXT:
            write(escape(node.content or "", _TEXT_ENTITIES))
            continue
        if node.kind is NodeKind.ATTRIBUTE:
            raise XmlFormatError(
                f"attribute node {node.label!r} outside an element start tag"
            )
        write(f"<{node.label}")
        content_children: list[TreeNode] = []
        for child in node.children:
            if child.kind is NodeKind.ATTRIBUTE:
                write(f" {child.label}={quoteattr(child.content or '')}")
            else:
                content_children.append(child)
        if content_children:
            write(">")
            frames.append((node, iter(content_children)))
        else:
            write("/>")
