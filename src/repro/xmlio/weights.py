"""The paper's slot weight model (Sec. 6.1).

Real-world storage engines align objects on secondary storage to a slot
size; the paper reflects this by weighing nodes in 8-byte slots rather
than bytes:

* every node uses **one slot for metadata** (tag name id, node type, …);
* text and attribute nodes additionally use ``ceil(len(content)/slot)``
  slots for their content string.

With the default slot size of 8 bytes, a limit of ``K = 256`` slots
corresponds to the paper's 2 KB storage units.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tree.node import NodeKind

DEFAULT_SLOT_SIZE = 8

#: Paper configuration: K = 256 slots of 8 bytes = 2 KB storage units.
PAPER_LIMIT = 256


@dataclass(frozen=True)
class SlotWeightModel:
    """Maps node kind + content to a weight in storage slots."""

    slot_size: int = DEFAULT_SLOT_SIZE
    metadata_slots: int = 1

    def content_slots(self, content: str | None) -> int:
        """Slots for a content string (UTF-8 length, slot-aligned)."""
        if not content:
            return 0
        # an ASCII string is as many bytes as characters: no encode needed
        nbytes = len(content) if content.isascii() else len(content.encode("utf-8"))
        return -(-nbytes // self.slot_size)

    def weight(self, kind: NodeKind, content: str | None = None) -> int:
        """Total weight of one node.

        Elements carry no content payload (their children do); text and
        attribute nodes pay for their string.
        """
        if kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
            return self.metadata_slots + self.content_slots(content)
        return self.metadata_slots

    def element_weight(self) -> int:
        return self.metadata_slots

    def text_weight(self, text: str) -> int:
        return self.metadata_slots + self.content_slots(text)

    def attribute_weight(self, value: str) -> int:
        return self.metadata_slots + self.content_slots(value)

    def bytes_for_weight(self, weight: int) -> int:
        """Storage bytes a given weight occupies."""
        return weight * self.slot_size
