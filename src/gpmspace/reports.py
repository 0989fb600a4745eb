"""Check verdicts, witnesses and canonical serialization helpers.

A "pass" verdict is exact where a check decides its claim in closed form (for
all t > 0: P1, P2, P4, P5 and monotone on every instance, and P3 of the
formula families under plus or max; see ``core``) and says so in its note;
every other check is falsification-only: "pass" means no counterexample was
found at the declared grid/sample resolution, never a proof.  A "fail"
verdict always carries at least one witness, and re-evaluating the violated
inequality on that witness in floats reproduces the failure.  An exact
violation without such a witness is "inconclusive".

A report's ``witnesses`` is a sequence, not always a tuple.  The axiom checks
of ``core`` and the d_alpha metric axioms can find thousands of witnesses
and a report serializes eight of them, so they return a ``ScanWitnesses``:
it keeps the check's witness index rows and the values gathered at those
rows, after any witnesses built before the scan, and builds a ``Witness``
only when one is read.  ``len`` (the report's ``witness_count``)
is exact and costs nothing, a slice is a tuple, and iterating builds every
witness in order.

Reports serialize through one writer, ``canonical_json``: sorted keys,
2-space indentation, ASCII escapes and a trailing newline, exactly the bytes
of ``json.dumps(canonical(x), sort_keys=True, indent=2) + "\n"``.  It
normalizes as it writes, in one pass, and escapes strings with ``json``'s C
escaper; ``json``'s pure-Python encoder, which ``indent`` selects, never
runs.  It dispatches on exact type: exact str, int, float, bool and None
values are written by one text function each, a list or tuple of one of
those exact types is written with one join, and a dict whose keys are all
exact strings is sorted as it is, with its scalar values written inline.
Subclasses, enums, numpy scalars and ``to_jsonable`` objects take the
general rules.  Two memos last for one call only: each distinct non-zero
float is rounded once per report, and each dict shape, an exact-str key
tuple at one indentation, is sorted and has its keys escaped once per
report (a dict with other keys is converted by the general rules first).
Most of a report is a few such shapes: a check, a witness, a ball.
``Templated`` values, the rows of the separation battery (its one subclass,
``separation.WitnessRow``), are written a column at a time and build no
tree.  A list that holds them is written per type: one ``json_columns``
call on the type groups its values of that type, each group of one shape,
and gives each group's values as columns.
Once per call, for each type, shape and indentation, the general rules
write the tree of a value with sentinel strings for its values, and the
text is split at them into a template; each column of values becomes a
column of texts (one ``map`` of the text function when it holds one exact
type), and each value's text is one join of the template's pieces with its
row of texts.  A list that holds no ``Templated`` value pays one more test
of its set of types.
A numpy array is written as its ``tolist()``, with one exception tested
after the exact-type, dict, list, int and str rules, so that it costs them
nothing: a 1-D or 2-D float64 array of at least ``_TABLE_MIN`` (1,024)
entries, such as a finite carrier's ``d`` in the instance digest or a
d_alpha table, is written from the array (``_table_text``).  One
``np.unique`` over its int64 bit patterns, so that 0.0 and -0.0, the
infinities and each NaN keep their own text, gives one text per distinct
pattern by the float rule, and one object-array take and one join per row
write the rows: the same text as its ``tolist()``.  The size rule is a
property of the input.  In interleaved timings of ``compact_json`` on one
n x n table (a 2-core VM), the array path's fixed cost, 5 to 10 us, pays
for itself from about 100 entries on a table of few distinct values (0.57
of the list path's time at 1,024), but on a table of distinct floats, each
of which needs its own text on either path, the array path is up to 15 %
slower below 256 entries and breaks even only at about 1,024.
``compact_json`` writes the same text on one line with
``json``'s default separators, as ``json.dumps(canonical(x),
sort_keys=True)`` would.
``canonical`` builds the normalized tree, for ``Report.to_jsonable``.  Both
walks take their scalar rules from one helper, ``_plain``, and its float
rule from ``_round12``.
"""
from __future__ import annotations

import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .errors import HypothesisError, PreconditionError, WitnessNotFoundError

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_MAX_SERIALIZED_WITNESSES = 8


@dataclass(frozen=True)
class Witness:
    """Concrete tuple violating (or exhibiting) a property.

    ``points`` holds the carrier points involved, ``values`` the named scalars
    (parameters, radii, both sides of the violated inequality).
    """

    points: tuple = ()
    values: dict = field(default_factory=dict)
    detail: str = ""

    def to_jsonable(self):
        return {
            "points": [p for p in self.points],
            "values": self.values,
            "detail": self.detail,
        }


class ScanWitnesses(Sequence):
    """The witnesses of an axiom check, each built when it is read.

    The witnesses in ``head``, found before the scan, come first.  Scanned
    witness ``k`` has the points ``pts[i]`` for the indices ``i`` in
    ``rows[k]``, the value ``float(column[k])`` for each named column of
    ``values`` (in that order) and ``detail``.  Only the rows and the
    gathered columns are kept, never the arrays they came from.
    """

    __slots__ = ("_pts", "_rows", "_values", "_detail", "_head")

    def __init__(self, pts, rows, values, detail, head=()):
        self._pts = pts
        self._rows = rows
        self._values = values
        self._detail = detail
        self._head = head

    def __len__(self):
        return len(self._head) + len(self._rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self._witness(i) for i in range(*k.indices(len(self))))
        k = operator.index(k)
        if not -len(self) <= k < len(self):
            raise IndexError(f"witness {k} of {len(self)}")
        return self._witness(k % len(self))

    def __iter__(self):
        return (self._witness(k) for k in range(len(self)))

    def _witness(self, k):
        if k < len(self._head):
            return self._head[k]
        k -= len(self._head)
        return Witness(points=tuple(self._pts[i] for i in self._rows[k].tolist()),
                       values={name: float(col[k]) for name, col in self._values.items()},
                       detail=self._detail)


@dataclass
class CheckReport:
    name: str
    verdict: str
    witness: Witness | None = None
    samples_tested: int = 0
    note: str = ""
    witnesses: Sequence = ()
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.witnesses and self.witness is None:
            self.witness = self.witnesses[0]

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def to_jsonable(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "note": self.note,
            "samples_tested": self.samples_tested,
            "witness": self.witness.to_jsonable() if self.witness else None,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_jsonable() for w in self.witnesses[:_MAX_SERIALIZED_WITNESSES]],
            "data": self.data,
        }


class Templated:
    """A value the writer fills into a template, a list at a time, instead of
    walking its tree.

    ``json_columns(items)``, called on the type with a list of its values,
    gives ``(shape, positions, columns)`` groups: the items at ``positions``
    share ``shape``, and ``columns[k][j]`` is value k of item
    ``positions[j]``.  The values are the parts of an item's tree that vary
    among items of one type and shape, each an exact str, int, float, bool
    or None, and ``json_tree(shape, values)`` builds that tree with
    ``values`` in place.  ``canonical_json`` derives each template from the
    general rules (``_template``).  Every subclass is registered, so the
    writer tells a list that holds one by a test of its set of types.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _TEMPLATED.add(cls)

    def to_jsonable(self):
        (shape, _, columns), = self.json_columns([self])
        return self.json_tree(shape, [column[0] for column in columns])


_TEMPLATED = set()  # every subclass of Templated


def not_certifiable(exc) -> str:
    """The note of a check that ``exc``, a hypothesis or precondition the
    instance does not meet, leaves inconclusive."""
    return f"not certifiable on this instance: {exc}"


def guarded(name: str, fn) -> CheckReport:
    """The report ``fn()`` returns, or the inconclusive check ``name`` when
    the instance does not meet a hypothesis or precondition it raises."""
    try:
        return fn()
    except (HypothesisError, PreconditionError, WitnessNotFoundError) as exc:
        return CheckReport(name=name, verdict=INCONCLUSIVE, note=not_certifiable(exc))


def _round12(x):
    """A finite float rounded to 12 significant digits: the float rule of both walks."""
    return float(format(x, ".12g"))


def _plain(obj):
    """``obj`` as a JSON value, by the scalar rules of both walks below.

    Floats are rounded to 12 significant digits (``_round12``), infinities
    and NaN become the strings "inf"/"-inf"/"nan" (JSON has no
    representation for them), numpy arrays become their ``tolist()`` and
    numpy scalars are unwrapped with ``.item()``, objects with
    ``to_jsonable`` are replaced by its result and anything else by its
    ``str``.  None, bools, ints and strings are returned as they
    are, and so are dicts, lists and tuples, whose contents the caller walks.
    """
    while True:
        if isinstance(obj, float):
            if math.isfinite(obj):
                return _round12(obj)
            return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
        if obj is None or isinstance(obj, (str, int, dict, list, tuple)):
            return obj
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        elif hasattr(obj, "item"):  # numpy scalar
            obj = obj.item()
        elif hasattr(obj, "to_jsonable"):
            obj = obj.to_jsonable()
        else:
            return str(obj)


def canonical(obj):
    """Normalize a value tree for byte-stable JSON output (see ``_plain``).

    Dict keys become ``str(key)``, the last of two colliding keys winning,
    and tuples and numpy arrays become lists.
    """
    obj = _plain(obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


class _FloatTexts(dict):
    """The JSON text of each exact float met in one ``canonical_json`` call.

    A distinct non-zero float is made plain once, on its first lookup.
    Zeros are never stored: ``0.0 == -0.0``, so a stored zero would give
    the other zero its text.
    """

    def __missing__(self, x):
        if not x:
            return float.__repr__(x)
        plain = _plain(x)
        text = self[x] = _escape(plain) if type(plain) is str else float.__repr__(plain)
        return text


def canonical_json(obj) -> str:
    """The canonical report text of a value tree, normalized as it is written.

    The result is exactly ``json.dumps(canonical(obj), sort_keys=True,
    indent=2) + "\n"``, built in one pass with the C string escaper instead
    of the pure-Python encoder that ``indent`` selects.  A large 1-D or 2-D
    float64 array is written from the array, one text per distinct bit
    pattern (``_table_text``); every other array as its ``tolist()``.
    """
    return _text(obj, "\n") + "\n"


def compact_json(obj) -> str:
    """The compact canonical text of a value tree: exactly
    ``json.dumps(canonical(obj), sort_keys=True)``, written as
    ``canonical_json`` writes, on one line with ``json``'s default separators."""
    return _text(obj, None)


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _text(obj, newline):
    texts = {str: _escape, int: int.__repr__, float: _FloatTexts().__getitem__,
             bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__}
    out = []
    _write(obj, out, newline, texts, {})
    return "".join(out)


def _layout(newline):
    """(the newline of the members, the text after the opening bracket, the
    separator, the text before the closing bracket) of a container whose
    line breaks are ``newline``: on one line if it is None."""
    if newline is None:
        return None, "", ", ", ""
    inner = newline + "  "
    return inner, inner, "," + inner, newline


def _shape(keys, newline):
    """The writing of a dict whose exact-str keys are ``keys``, on lines
    broken by ``newline``: its members' newline, its ``(key, text before the
    value)`` pairs in sorted key order, and its closing text."""
    inner, first, comma, last = _layout(newline)
    sep, heads = "{" + first, []
    for key in sorted(keys):
        heads.append((key, sep + _escape(key) + ": "))
        sep = comma
    return inner, heads, last + "}"


# the text of the sentinel string "\0<k>\0" that stands for value k of a template
_HOLE = re.compile(r'"\\u0000(\d+)\\u0000"')


def _template(kind, shape, size, newline, texts, shapes):
    """The template of the ``Templated`` type ``kind``'s values of ``shape``
    at ``newline``: ``(pieces, order)``, where the text of a value is
    ``pieces`` interleaved with the texts of its values ``order[0]``,
    ``order[1]``, ...  Derived by the general rules: the tree with ``size``
    sentinel strings for its values is written and split at them."""
    out = []
    _write(kind.json_tree(shape, [f"\0{k}\0" for k in range(size)]), out, newline, texts, shapes)
    pieces = _HOLE.split("".join(out))
    return pieces[::2], [int(k) for k in pieces[1::2]]


def _column_texts(column, texts):
    """The texts of a column of exact scalars: one ``map`` if it holds one type."""
    kinds = {*map(type, column)}
    if len(kinds) == 1:
        return list(map(texts[kinds.pop()], column))
    return [texts[type(v)](v) for v in column]


def _item_texts(items, kinds, newline, texts, shapes):
    """The text of each item of a list that holds ``Templated`` values.  The
    values of each such type are written a column at a time: per group of
    one shape (``json_columns``), each column of values becomes a column of
    texts, and each value's text is one join of its template's pieces with
    its row of texts.  Every other item is written by the general rules."""
    done = [None] * len(items)
    for kind in kinds & _TEMPLATED:
        at = [i for i, v in enumerate(items) if type(v) is kind]
        for shape, positions, columns in kind.json_columns([items[i] for i in at]):
            template = shapes.get((kind, shape, newline))
            if template is None:
                template = shapes[kind, shape, newline] = _template(
                    kind, shape, len(columns), newline, texts, shapes)
            pieces, order = template
            column_texts = [_column_texts(column, texts) for column in columns]
            parts = []
            for piece, k in zip(pieces, order):
                parts += (repeat(piece), column_texts[k])
            # the positions bound the rows: every other part repeats forever
            rows = map("".join, zip(*parts, repeat(pieces[-1])))
            for p, text in zip(positions, rows):
                done[at[p]] = text
    for i, text in enumerate(done):
        if text is None:
            out = []
            _write(items[i], out, newline, texts, shapes)
            done[i] = "".join(out)
    return done


# the fewest entries of a float array written from the array (``_table_text``),
# at least 1: below it a table of distinct floats writes faster as its list
# (module docstring)
_TABLE_MIN = 1024


def _table_text(a, newline, text):
    """The text of the non-empty 1-D or 2-D float64 array ``a``, exactly the
    text of ``a.tolist()``: ``text`` makes one text per distinct bit
    pattern, so 0.0 and -0.0, and each NaN, keep their own, and one take of
    those texts and one join per row write the array."""
    patterns, inverse = np.unique(a.view(np.int64), return_inverse=True)
    words = np.array([text(x) for x in patterns.view(np.float64).tolist()], dtype=object)
    cells = words.take(inverse.reshape(a.shape)).tolist()
    inner, first, comma, last = _layout(newline)
    if a.ndim == 1:
        return "[" + first + comma.join(cells) + last + "]"
    _, row_first, row_comma, row_last = _layout(inner)
    return "[" + first + comma.join(["[" + row_first + row_comma.join(row) + row_last + "]"
                                     for row in cells]) + last + "]"


def _write(obj, out, newline, texts, shapes):
    """Append the JSON text of ``obj``, whose line breaks are ``newline``, or
    on one line with ``json``'s default separators if ``newline`` is None.

    ``texts`` maps the exact scalar types str, int, float, bool and None to
    their text functions; a value of any other type, subclasses included, takes the
    general rules below and is made plain by ``_plain`` if it is no JSON
    value.  A list of one exact scalar type is written with one join.  A
    dict whose keys are all exact strings is sorted as it is, and ``shapes``
    keeps its sorted keys and their escaped texts (``_shape``) for the next
    dict of the same key tuple at the same indentation.  A ``Templated``
    value is its template (``_template``), kept in ``shapes`` per type, shape
    and indentation, with the texts of its values filled in.  A 1-D or 2-D
    float64 array of ``_TABLE_MIN`` entries or more is written from the
    array (``_table_text``), tested last so the other values do not pay for it.
    """
    text = texts.get(type(obj))
    if text:
        out.append(text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        if type(obj) is not dict or {*map(type, obj)} != {str}:
            obj = {str(k): v for k, v in obj.items()}
        keys = tuple(obj)
        shape = shapes.get((keys, newline))
        if shape is None:
            shape = shapes[keys, newline] = _shape(keys, newline)
        inner, heads, close = shape
        for key, head in heads:
            out.append(head)
            value = obj[key]
            text = texts.get(type(value))
            if text:
                out.append(text(value))
            else:
                _write(value, out, inner, texts, shapes)
        out.append(close)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner, first, comma, last = _layout(newline)
        kinds = {*map(type, obj)}
        text = texts.get(next(iter(kinds))) if len(kinds) == 1 else None
        if text:
            out.append("[" + first + comma.join(map(text, obj)) + last + "]")
        elif not kinds.isdisjoint(_TEMPLATED):
            out.append("[" + first + comma.join(_item_texts(obj, kinds, inner, texts, shapes))
                       + last + "]")
        else:
            sep = "[" + first
            for v in obj:
                out.append(sep)
                _write(v, out, inner, texts, shapes)
                sep = comma
            out.append(last + "]")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif (type(obj) is np.ndarray and obj.dtype == np.float64 and 1 <= obj.ndim <= 2
          and obj.size >= _TABLE_MIN):
        out.append(_table_text(obj, newline, texts[float]))
    else:
        obj = _plain(obj)
        if isinstance(obj, float):
            out.append(float.__repr__(obj))
        else:
            _write(obj, out, newline, texts, shapes)
