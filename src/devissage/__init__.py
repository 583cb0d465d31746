"""Finite presentations of fundamental groups of glued spaces.

The package assembles a presentation of the fundamental group of a space
described combinatorially (component pieces, singular loci, and the edges of
the normalization joining them), by a spanning-tree van Kampen construction
and by a recursive block splitting, and verifies every assembly against a
brute-force census of finite covers modelled as descent tuples.
"""

from .words import *
from .presentations import *
from .perms import *
from .homs import *
from .vankampen import *
from .configuration import *
from .assembly import *
from .discreteness import *
from .covers import *
from .serialize import *
from . import corpus

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
