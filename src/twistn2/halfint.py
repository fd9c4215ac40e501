"""Alias of the one index type: a half-integer is the constant `SymIndex`.

Nothing in the package imports this module for its own use.  It stays
because perfbench/tracer.py counts calls to the index methods through
`halfint.HalfInt` as well as `indices.SymIndex`; both names bind one class,
so both counts see the same calls.
"""

from .indices import SymIndex

HalfInt = SymIndex
