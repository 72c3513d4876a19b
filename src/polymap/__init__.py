"""Polygonal building mapping toolkit.

Losses and a desk-scale neural reference for grid-token polygon vertex
sequence prediction, plus the polygonal evaluation metric suite and the
COCO-subset data plumbing around them.
"""

from . import heap

__version__ = "0.1.0"

heap.settle()
