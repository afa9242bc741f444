"""MDS array codes whose single-node rebuild reads only a 1/r fraction of the
surviving data, with exact-arithmetic encoding, decoding and verification."""

__version__ = "0.1.0"
