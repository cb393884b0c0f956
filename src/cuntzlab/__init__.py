"""Exact computer algebra for Cuntz algebras of product systems over N^k.

The package models the dense *-subalgebra spanned by products i(x) i(y)* of
the generating isometries of a twisted-lexicographic product system, decides
equality through canonical normal forms, evaluates elements in concrete
step-operator representations, and carries the verification constructions:
simplicity classification from generator dimensions, nonsimplicity
witnesses, compression annihilation, generator-assignment morphisms, and
the dimension-absorbing isomorphism.  Names are imported from their
modules (``from cuntzlab import algebra``); the root imports nothing.
"""

__version__ = "0.1.0"
