"""Exact invariants of quiver representation varieties and their moduli.

Modules by topic: quiver (combinatorial core), laurent (exact
arithmetic), roots (Kac root system), generic (Schofield calculus),
hn (Harder-Narasimhan machinery and Betti numbers), words (composition
monoid), series (partition generating functions), oracle (finite-field
brute force), cli (command line).
"""

__version__ = "0.1.0"
