"""Data structures from Appendix B: parent-pointer trees and the
log-size bin index used for Largest-First cluster selection."""

from .bin_index import BinIndex
from .parent_pointer_tree import Leaf, Node, ParentPointerForest
from .union_find import ClusterUnionFind, UnionFind, canonical_clusters

__all__ = [
    "ParentPointerForest",
    "Node",
    "Leaf",
    "BinIndex",
    "UnionFind",
    "ClusterUnionFind",
    "canonical_clusters",
]
