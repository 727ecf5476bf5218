"""repro.index — per-document structural indexes for the XPath engine.

The XPath-accelerator observation (Grust; also the DMR-XPath exemplar in
SNIPPETS.md): once every node carries its **preorder rank** and
**subtree size**, the recursive axes need no navigation —

* ``descendant(v)``   = nodes with ``pre(v) < pre  ≤ pre(v)+size(v)-1``
  (a *contiguous preorder window*, because preorder visits a subtree as
  one run),
* ``ancestor(v)``     = the ``parent`` chain, which the index stores.

:class:`~repro.index.structural.StructuralIndex` materializes those
columns as typed ``array('q')`` vectors in one DFS over the document,
plus two things the paper's storage model adds on top:

* **per-label preorder postings** — ``//keyword`` inside any subtree is
  one ``bisect`` window over the sorted preorder ranks of ``keyword``
  elements, instead of an O(subtree) navigation walk;
* a **preorder record map** — ``record_of`` run-length encoded over
  preorder, whose runs follow the holes a sibling partition's span has
  where subtrees were cut out, so a window axis decodes *exactly* the
  partitions holding a node of its windows. Partitions the sibling
  partitioning kept out of a subtree are pruned without a page touch,
  charged against the same :class:`~repro.storage.store.NavigationStats`
  cost model navigation uses.

``repro.query.engine`` answers every location step from the index, once
for the step's whole context set (a staircase of descendant windows, a
shared ancestor climb, merged CSR slices), when
``store.structural_index`` is present and valid, and falls back to
hop-by-hop navigation otherwise (a stale index counts one
``index.fallbacks`` per step); an equivalence suite pins both paths to
bit-identical node-id results.
Structural updates and record moves invalidate the index
(:meth:`DocumentStore.invalidate_index`); crash recovery adopts stores
without one, so recovered documents navigate until re-indexed.
"""

from repro.index.structural import StructuralIndex

__all__ = ["StructuralIndex"]
