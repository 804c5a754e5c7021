"""Chain interpreter: words over {c, s} run as tangency chains in an annulus.

A word is read cyclically; letter c places a circle inscribed in the annulus,
letter s a chord of the outer circle tangent to the inner one.  Consecutive
elements are tangent (circle/circle and circle/chord) or share an endpoint
(chord/chord), each new contact is separated from the previous one by the
element's own tangency points, and the candidate repeating the previous
element is excluded.  Progress is measured by the angle of each element's
contact with the inner circle, so the monodromy defect of a run is the wrapped
difference of first and last progress angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import _kernels as kern
from .errors import ChainError, DeadEndError, DomainError, TieError
from .geometry import (
    Annulus,
    Chord,
    Circle,
    Point,
    _from_canonical,
    chord_at,
    wrap_2pi,
    wrap_pi,
)

PROGRESS_TOL = 1e-7
# Fewest seeds a seed-grid verdict may rest on.
MIN_SEEDS = 8

CLOSED_EVERYWHERE = "closed-everywhere"
CLOSED_NOWHERE = "closed-nowhere"
MIXED = "mixed"

_LETTERS = frozenset("cs")


@dataclass(frozen=True)
class Word:
    """Cyclic word over {c, s}, at least two letters."""

    letters: str

    def __post_init__(self):
        if len(self.letters) < 2:
            raise DomainError("word needs at least two letters")
        if not set(self.letters) <= _LETTERS:
            raise DomainError(f"word must use only c and s: {self.letters!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def letter(self, i: int) -> str:
        """Cyclic indexing: letter(n) is letter(0)."""
        return self.letters[i % len(self.letters)]


@dataclass(frozen=True)
class CircleElement:
    """Inscribed circle keyed by its inner-tangency (progress) angle."""

    circle: Circle
    omega_contact: float
    entry_point: Optional[Point] = None

    letter = "c"


@dataclass(frozen=True)
class ChordElement:
    """Tangent chord keyed by its inner-tangency (progress) angle."""

    chord: Chord
    omega_contact: float
    entry_point: Optional[Point] = None

    letter = "s"


ChainElement = Union[CircleElement, ChordElement]


@dataclass(frozen=True)
class ChainRun:
    """A completed chain: n+1 elements for an n-letter word."""

    annulus: Annulus
    word: Word
    elements: tuple[ChainElement, ...]
    defect: float
    closed: bool


# ---------------------------------------------------------------------------
# kernel element conversion

def _to_world(a: Annulus, elem) -> ChainElement:
    beta = a.axis_angle
    if elem[0] == "c":
        _, alpha, x, y, rho, ex, ey, has_entry = elem
        center = _from_canonical(a, x, y)
        entry = _from_canonical(a, ex, ey) if has_entry else None
        return CircleElement(Circle(center, rho), wrap_2pi(alpha + beta),
                             entry)
    _, phi, ex, ey, has_entry = elem
    omega = wrap_2pi(phi + beta)
    entry = _from_canonical(a, ex, ey) if has_entry else None
    return ChordElement(chord_at(a, omega), omega, entry)


def _raise_for(status: int, index: Optional[int] = None,
               elements=()) -> None:
    where = "" if index is None else f" at index {index}"
    if status == kern.DEAD_END:
        raise DeadEndError(
            f"no successor satisfies the separation condition{where}",
            index=index, elements=elements)
    if status == kern.TIE:
        raise TieError(
            f"successor choice is ambiguous within tolerance{where}",
            index=index, elements=elements)
    raise ChainError(f"chain failed with status {status}{where}",
                     index=index, elements=elements)


# ---------------------------------------------------------------------------
# chain operations

def seed_element(a: Annulus, letter: str, theta: float) -> ChainElement:
    """Starting element with inner tangency at world angle theta."""
    if letter not in _LETTERS:
        raise DomainError(f"letter must be c or s, got {letter!r}")
    alpha = wrap_2pi(theta - a.axis_angle)
    return _to_world(a, kern.seed_element(a.R, a.r, a.d, letter, alpha))


def run_chain(a: Annulus, w: Word, seed: ChainElement,
              orientation: int = 1, tol: float = PROGRESS_TOL) -> ChainRun:
    """Run the n-letter word from the seed, building n+1 elements.

    The chain starts from the seed's letter and progress angle; a seed
    never has an entry point.  The defect is the one monodromy_defect
    gives for the seed's angle.  closed requires the final element to
    match the first: same letter, same progress angle within tol, and
    for circles the same radius within tol*R.
    """
    if seed.letter != w.letter(0):
        raise DomainError(
            f"seed letter {seed.letter!r} does not match word start "
            f"{w.letter(0)!r}")
    if seed.entry_point is not None:
        raise DomainError("a seed element has no entry point")
    alpha = wrap_2pi(seed.omega_contact - a.axis_angle)
    status, index, kelems = kern.chain_run(a.R, a.r, a.d, w.letters, alpha,
                                           orientation)
    elems = tuple(_to_world(a, e) for e in kelems)
    if status != kern.OK:
        _raise_for(status, index, elems)
    first, last = kelems[0], kelems[-1]
    defect = wrap_pi(last[1] - first[1])
    closed = last[0] == first[0] and abs(defect) < tol
    if closed and first[0] == "c":
        closed = abs(last[4] - first[4]) < tol * a.R
    return ChainRun(a, w, elems, defect, closed)


def monodromy_defect(a: Annulus, w: Word, theta: float,
                     orientation: int = 1) -> float:
    """Defect of the chain seeded at world angle theta.

    A chain that fails raises the ChainError subclass for its status
    without index or elements; run_chain reports the partial chain.
    """
    alpha = wrap_2pi(theta - a.axis_angle)
    status, defect = kern.chain_defect(a.R, a.r, a.d, w.letters, alpha,
                                       orientation)
    if status != kern.OK:
        _raise_for(status)
    return defect


class SeedSweep(NamedTuple):
    """Closure verdict over a seed grid and the seed that realizes it.

    theta is the seed with the largest |defect| and defect that value;
    when no seed completes, theta is the first dead seed and defect None.
    dead counts the seeds whose chain fails to complete.
    """

    verdict: str
    theta: float
    defect: Optional[float]
    dead: int


def closure_sweep(a: Annulus, w: Word, grid_size: int = 64,
                  tol: float = 1e-8) -> SeedSweep:
    """All-or-nothing closure verdict over a uniform seed grid.

    closed-everywhere: every seed runs to completion and the worst |defect|
    is below tol.  closed-nowhere: every seed either fails to complete or
    has |defect| above 10*tol.  Anything in between is mixed, which signals
    a word without the all-or-nothing property or numerical trouble.
    """
    return closure_sweeps([a], w, grid_size, tol)[0]


def closure_sweeps(annuli: Sequence[Annulus], w: Word, grid_size: int = 64,
                   tol: float = 1e-8) -> list[SeedSweep]:
    """closure_sweep of every annulus, with all their seeds in one
    lockstep kernel call."""
    if grid_size < MIN_SEEDS:
        raise DomainError(f"grid size must be at least {MIN_SEEDS}, "
                          f"got {grid_size}")
    thetas = [2.0 * math.pi * i / grid_size for i in range(grid_size)]
    cols = np.array([[a.R, a.r, a.d, a.axis_angle] for a in annuli]).T
    R, r, d, axis = (col[:, None] for col in cols)
    # the seed angles in each annulus's own frame, as in monodromy_defect;
    # the kernel wraps them to [0, 2*pi)
    status, defect = kern.chain_defect_many(R, r, d, w.letters,
                                            np.array(thetas) - axis)
    return [_sweep_verdict(thetas, done == kern.OK, np.abs(gaps), tol)
            for done, gaps in zip(status, defect)]


def _sweep_verdict(thetas: list[float], done: np.ndarray, gaps: np.ndarray,
                   tol: float) -> SeedSweep:
    dead = len(thetas) - int(np.count_nonzero(done))
    if dead == len(thetas):
        return SeedSweep(CLOSED_NOWHERE, thetas[0], None, dead)
    # the first seed in grid order among those with the largest |defect|
    k = int(np.argmax(np.where(done, gaps, -np.inf)))
    worst = float(gaps[k])
    if dead == 0 and worst < tol:
        verdict = CLOSED_EVERYWHERE
    elif float(np.min(gaps[done])) > 10.0 * tol:
        verdict = CLOSED_NOWHERE
    else:
        verdict = MIXED
    return SeedSweep(verdict, thetas[k], worst, dead)


def is_closure_config(a: Annulus, w: Word, grid_size: int = 64,
                      tol: float = 1e-8) -> str:
    """The verdict of closure_sweep alone."""
    return closure_sweep(a, w, grid_size, tol).verdict
