"""The mega-database (MDB): labelled signal-sets in the document store.

Implements Section V-B's first half: combining the corpora into a
single searchable database of 1000-sample, bandpass-filtered, 256 Hz
signal-sets, each carrying the anomaly attribute ``A(S)`` and full
provenance metadata.
"""

from repro.mdb.builder import BuildReport, MDBBuilder
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import SLICE_COLLECTION, slice_from_document, slice_to_document

__all__ = [
    "BuildReport",
    "MDBBuilder",
    "MegaDatabase",
    "SLICE_COLLECTION",
    "slice_from_document",
    "slice_to_document",
]
