"""Signatures (highest-weight labels) and integer-multiplicity spectra.

A signature is a weakly decreasing integer tuple kept in canonical form:
trailing zeros are trimmed, and for purely nonpositive labels (duals) the
leading zeros are trimmed instead, so that negation is an involution.  The
rank k lives in operation arguments, never in the label itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedSigns, NotDominant, RankTooSmall


@dataclass(frozen=True, order=True, slots=True)
class Signature:
    """Canonical weakly decreasing integer tuple."""

    entries: tuple[int, ...] = ()

    def __post_init__(self):
        e = self.entries
        if not isinstance(e, tuple):
            e = tuple(int(x) for x in e)
            object.__setattr__(self, "entries", e)
        for a, b in zip(e, e[1:]):
            if a < b:
                raise NotDominant(f"ascent {a} < {b} in {e}")
        if e and e[0] > 0 and e[-1] < 0:
            raise MixedSigns(f"mixed-sign entries in {e}")
        if e and e[-1] == 0:
            raise NotDominant(f"{e} not canonical: trailing zero")
        if e and e[0] == 0:
            raise NotDominant(f"{e} not canonical: leading zero")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)

    def pad(self, k: int) -> tuple[int, ...]:
        """Entries extended with zeros to length k."""
        if k < len(self.entries):
            raise RankTooSmall(f"k={k} below length of {self}")
        return self.entries + (0,) * (k - len(self.entries))

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.entries) + ")"


def normalize(raw) -> Signature:
    """Canonicalize an integer sequence into a Signature.

    Rejects ascents; trims trailing zeros, then (for nonpositive labels)
    leading zeros.
    """
    t = tuple(int(x) for x in raw)
    for a, b in zip(t, t[1:]):
        if a < b:
            raise NotDominant(f"ascent {a} < {b} in {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    while t and t[0] == 0:
        t = t[1:]
    return Signature(t)


def sig(*entries) -> Signature:
    """Shorthand constructor: sig(7, 1, 0) == normalize((7, 1, 0))."""
    return normalize(entries)


def check_polynomial(labels, k=None) -> None:
    """Reject labels that no polynomial in the Z variables realizes: with a
    rank k, a label longer than k raises RankTooSmall; then a label with a
    negative entry (a contragredient) raises NotDominant.  Every rank is
    checked before any sign, so the error does not depend on label order."""
    if k is not None:
        for m in labels:
            if k < m.length:
                raise RankTooSmall(f"k={k} below length of {m}")
    for m in labels:
        if m.entries and m.entries[-1] < 0:
            raise NotDominant(f"polynomial labels are nonnegative, got {m}")


def compositions(total: int, caps):
    """Weak compositions of total with part i at most caps[i], in ascending
    lexicographic order."""
    n = len(caps)

    def rec(j, rem, prefix):
        if j == n - 1:
            if 0 <= rem <= caps[j]:
                yield prefix + (rem,)
            return
        for v in range(min(rem, caps[j]) + 1):
            yield from rec(j + 1, rem - v, prefix + (v,))

    if n:
        yield from rec(0, total, ())
    elif total == 0:
        yield ()


def tables(row_sums, col_sums) -> list:
    """Nonnegative integer tables with the given row and column sums, each a
    tuple of rows, in ascending lexicographic order of the flattened table.

    Rows are filled one at a time, each a composition of its sum under the
    column sums still open.  Unequal totals give no table; equal totals
    leave every column closed after the last row.
    """
    col_sums = tuple(col_sums)
    if sum(row_sums) != sum(col_sums):
        return []
    partial = [((), col_sums)]
    for total in row_sums:
        partial = [
            (rows + (row,), tuple([c - v for c, v in zip(room, row)]))
            for rows, room in partial
            for row in compositions(total, room)
        ]
    return [rows for rows, _ in partial]


class SignedSpectrum:
    """Finitely supported integer combination of signatures.

    Negative multiplicities are allowed transiently; genuine
    decompositions are nonnegative.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Signature, int] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for s, m in items:
                if not isinstance(s, Signature):
                    s = normalize(s)
                m = int(m)
                if m:
                    new = data.get(s, 0) + m
                    if new:
                        data[s] = new
                    elif s in data:
                        del data[s]
        self._terms = data

    def __getitem__(self, s: Signature) -> int:
        return self._terms.get(s, 0)

    def __contains__(self, s: Signature) -> bool:
        return s in self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, SignedSpectrum):
            return self._terms == other._terms
        if isinstance(other, dict):
            return self._terms == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def items(self):
        return self._terms.items()

    def sorted_terms(self):
        """Terms sorted lexicographically descending by signature entries."""
        return sorted(self._terms.items(), key=lambda t: t[0].entries, reverse=True)

    def text(self, pad_to: int = 0) -> str:
        if not self._terms:
            return "0"
        parts = []
        for s, m in self.sorted_terms():
            body = "(" + ",".join(str(x) for x in s.pad(max(pad_to, s.length))) + ")"
            if m == 1:
                parts.append(body)
            elif m == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{m}{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"SignedSpectrum({self.text()})"

    def to_json_obj(self):
        return [
            {"signature": list(s.entries), "multiplicity": m}
            for s, m in self.sorted_terms()
        ]

    @classmethod
    def from_entries(cls, terms) -> "SignedSpectrum":
        """The spectrum of {canonical entry tuple: multiplicity}, zeros
        dropped; the keys are distinct, so nothing is normalized or merged."""
        spec = cls()
        spec._terms = {Signature(t): m for t, m in terms.items() if m}
        return spec
