"""Exception and warning types shared across the package, and the table
of size caps whose refusal is a CapExceededError.

Exit-code mapping used by the CLI: ValidationError -> 1,
CapExceededError and MemoryError -> 2, OracleMismatchError -> 3.
"""

from __future__ import annotations

from typing import NamedTuple


class StonelabError(Exception):
    """Base class for all package errors."""


class ValidationError(StonelabError):
    """Malformed input: bad structure data, bad arguments, broken axioms."""


class AlgebraMismatchError(ValidationError):
    """Operation mixing elements of distinct algebras."""


class CapExceededError(StonelabError):
    """A size cap would be exceeded: ``attempted`` is over ``limit``, the
    limit in force for the row ``cap``, whose text the message is."""

    def __init__(self, cap: Cap, attempted: int, limit: int):
        super().__init__(cap.text.format(attempted=attempted, limit=limit))
        self.cap = cap
        self.attempted = attempted
        self.limit = limit


class Cap(NamedTuple):
    """One size limit: its default, its hard maximum (None: unbounded), the
    CLI flag and environment variable that set it (None: fixed), and its
    refusal text, formatted with ``attempted`` and ``limit``."""

    name: str
    default: int
    maximum: int | None
    flag: str | None
    env: str | None
    text: str

    def check(self, attempted: int, limit: int | None = None) -> None:
        """Refuse ``attempted`` above ``limit``, the default if None."""
        if limit is None:
            limit = self.default
        if attempted > limit:
            raise CapExceededError(self, attempted, limit)


class PoolInsufficientError(ValidationError):
    """A candidate pool cannot T0-separate its point set even without
    budget; the message names one unseparated pair."""


class OracleMismatchError(StonelabError):
    """A built-in cross-check failed; indicates an internal bug."""


class LintWarning(UserWarning):
    """Non-fatal input oddities: duplicate family members, non-separating
    generator sets, combinator preconditions that only degrade guarantees."""


ATOMS = Cap("atoms", 64, 1024, "--cap-atoms", "STONELAB_CAP_ATOMS",
            "atom_count {attempted} exceeds cap {limit}")
# The two point rows share a knob, so they share its default.
POSET_POINTS = Cap("poset points", 20, None, "--cap-enum", "STONELAB_CAP_ENUM",
                   "poset has {attempted} points (cap {limit}); |FS(P)| could reach 2^{attempted}")
SEMILATTICE_POINTS = Cap("semilattice points", 20, None, "--cap-enum", "STONELAB_CAP_ENUM",
                         "semilattice has {attempted} points (cap {limit})")
UPSETS = Cap("up-sets", 1 << 20, None, None, None, "more than {limit} up-sets, a fixed limit")
SYSTEM_POINTS = Cap("system points", 4096, None, None, None,
                    "system has {attempted} points, cap is {limit}")
PRODUCT_POINTS = Cap("product points", 4096, None, None, None,
                     "product would have {attempted} points, cap is {limit}")
NAIVE_LENGTH = Cap("naive free-check length", 12, None, None, None,
                   "naive check capped at length {limit}")
SIGMA_NODES = Cap("sigma-tree nodes", 100_000, None, None, None,
                  "sigma tree exceeds {limit} nodes")
EXACT_POINTS = Cap("exact points", 12, None, None, None,
                   "exact mode capped at {limit} points, got {attempted}; use greedy mode")
EXACT_CANDIDATES = Cap("exact candidates", 32, None, None, None,
                       "exact mode capped at {limit} candidates, got {attempted}; use greedy mode")
FREE_POOL_ATOMS = Cap("free-pool atoms", 12, None, None, None,
                      "free pool enumerates all subsets; atoms capped at {limit}")
# A forest of n nodes becomes the n-atom initial chain algebra.
TREE_NODES = Cap("tree nodes", ATOMS.maximum, None, None, None,
                 "tree has {attempted} nodes (cap {limit})")

CAPS = tuple(row for row in tuple(globals().values()) if isinstance(row, Cap))  # rows above
