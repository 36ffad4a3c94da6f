"""Braid words, Markov moves, and a small catalog of links given as closures.

The text form of a braid word is whitespace-separated signed decimal
integers in ASCII digits, e.g. ``"1 -2 1"``; a missing sign means
positive. Letter ``g`` is the generator at position ``abs(g)``, inverted
when ``g < 0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BraidParseError, GybError, ShapeError


def integer(text: str) -> int:
    """Read ASCII ``[+-]?[0-9]+``, whitespace around it ignored; ``1_0``, read by int(), is a ValueError."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text):
        raise ValueError(text)
    return int(text)


def read_lines(path, error: type[GybError], what: str) -> list[str]:
    """Lines of a UTF-8 file, less a leading byte-order mark; ``error`` if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError:
        raise error(f"{path}: {what} must be UTF-8 text") from None
    except OSError as exc:
        raise error(str(exc)) from None


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands.

    Letters are nonzero integers with ``abs(g) <= strands - 1``; the empty
    word is the identity braid. Instances are immutable and hashable.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise BraidParseError(f"strand count must be positive, got {self.strands}")
        # from a list: tuple() of a generator grows its tuple by resizing, and
        # the resized tuples pile up in the interpreter's tuple free lists
        letters = tuple([int(g) for g in self.letters])
        object.__setattr__(self, "letters", letters)
        for g in letters:
            if g == 0 or abs(g) > self.strands - 1:
                raise BraidParseError(f"letter {g} is out of range for {self.strands} strands")

    def __len__(self) -> int:
        return len(self.letters)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse braid text; infer strands as ``1 + max |letter|`` when omitted."""
    letters = []
    for tok in text.split():
        try:
            g = integer(tok)
        except ValueError:
            raise BraidParseError(f"bad braid token {tok!r}, expected a signed integer") from None
        if g == 0:
            raise BraidParseError("0 is not a braid letter")
        letters.append(g)
    if strands is None:
        strands = max((abs(g) for g in letters), default=0) + 1
    return BraidWord(strands, tuple(letters))


def format_braid(b: BraidWord) -> str:
    """Inverse of parse_braid; the identity braid formats to an empty string."""
    return " ".join(str(g) for g in b.letters)


def writhe(b: BraidWord) -> int:
    """Sum of letter signs."""
    return sum(1 if g > 0 else -1 for g in b.letters)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Concatenation; both words must live on the same strand count."""
    if a.strands != b.strands:
        raise ShapeError(f"cannot compose words on {a.strands} and {b.strands} strands")
    return BraidWord(a.strands, a.letters + b.letters)


def inverse(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands, tuple(-g for g in reversed(b.letters)))


def conjugate(b: BraidWord, by: BraidWord) -> BraidWord:
    """The word ``by^-1 b by`` on the same strand count."""
    return compose(compose(inverse(by), b), by)


def stabilize(b: BraidWord, sign: int = 1) -> BraidWord:
    """Add a strand and one crossing of the given sign with the new strand."""
    if sign not in (1, -1):
        raise BraidParseError(f"stabilization sign must be +1 or -1, got {sign}")
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


def juxtapose(a: BraidWord, b: BraidWord) -> BraidWord:
    """Place ``b`` to the right of ``a``; closure is the split union."""
    shifted = tuple(g + a.strands if g > 0 else g - a.strands for g in b.letters)
    return BraidWord(a.strands + b.strands, a.letters + shifted)


def closure_components(b: BraidWord) -> int:
    """Number of link components of the braid closure."""
    # no letter touches a strand past 1 + max|g|: each of those closes alone
    top = 1 + max((abs(g) for g in b.letters), default=0)
    perm = list(range(top))
    for g in b.letters:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * top
    cycles = b.strands - top
    for start in range(top):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def random_braid(strands: int, length: int, seed) -> BraidWord:
    """Uniform random word: each letter drawn from the 2*(strands-1) generators.

    Deterministic for a fixed integer seed; the generator is numpy's PCG64
    (``numpy.random.default_rng``). Passing an existing Generator continues
    its stream. One strand admits only the empty word.
    """
    if strands < 1:
        raise BraidParseError(f"strand count must be positive, got {strands}")
    if length < 0:
        raise BraidParseError(f"length must be nonnegative, got {length}")
    rng = np.random.default_rng(seed)
    if strands == 1 or length == 0:
        return BraidWord(strands)
    idx = rng.integers(1, strands, size=length)
    sign = 2 * rng.integers(0, 2, size=length) - 1
    return BraidWord(strands, tuple(int(s * i) for s, i in zip(sign, idx)))


@dataclass(frozen=True)
class NamedLink:
    """A link presented as the closure of a specific braid word."""

    name: str
    braid: BraidWord

    @property
    def components(self) -> int:
        """Link components of the closure, counted from the braid on each read."""
        return closure_components(self.braid)


def _named(name: str, strands: int, word: str) -> NamedLink:
    return NamedLink(name, parse_braid(word, strands))


#: Built-in links. ``unlinkN`` is the trivial N-component link as the
#: identity braid on N strands.
LINKS: dict[str, NamedLink] = {
    link.name: link
    for link in [
        _named("unknot", 1, ""),
        _named("unlink2", 2, ""),
        _named("unlink3", 3, ""),
        _named("unlink4", 4, ""),
        _named("unlink5", 5, ""),
        _named("unlink6", 6, ""),
        _named("hopf+", 2, "1 1"),
        _named("hopf-", 2, "-1 -1"),
        _named("trefoil", 2, "1 1 1"),
        _named("figure8", 3, "1 -2 1 -2"),
    ]
}


def resolve_braid(text: str, strands: int | None = None, catalog: dict[str, NamedLink] | None = None) -> BraidWord:
    """Catalog name lookup first, braid text parsing second."""
    table = LINKS if catalog is None else catalog
    link = table.get(text.strip())
    if link is not None:
        return link.braid
    return parse_braid(text, strands)


def load_catalog_file(path) -> dict[str, NamedLink]:
    """Read a link catalog: one ``name<TAB>strands<TAB>word`` record per line.

    Names are not blank and strand counts are ASCII integers. Blank lines
    and lines starting with ``#`` are skipped; a later ``#`` is text, as in
    ``3_1#3_1``. A file that cannot be read or is not UTF-8 (a leading
    byte-order mark is dropped) raises BraidParseError.
    """
    links: dict[str, NamedLink] = {}
    for lineno, line in enumerate(read_lines(path, BraidParseError, "link catalogs"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise BraidParseError(f"{path}:{lineno}: expected name<TAB>strands<TAB>word")
        name, strands_text, word = parts
        name = name.strip()
        if not name:
            raise BraidParseError(f"{path}:{lineno}: empty link name")
        try:
            strands = integer(strands_text)
        except ValueError:
            raise BraidParseError(f"{path}:{lineno}: bad strand count {strands_text!r}") from None
        links[name] = NamedLink(name, parse_braid(word, strands))
    return links
