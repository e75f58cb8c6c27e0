#!/usr/bin/env python
"""Fail if scalar per-box idioms creep back into the columnar core.

Nine families of checks, so regressions need not be spotted by eye
(the first two are mostly substring/regex greps, the last seven walk
the syntax tree):

**Work pricing** (all of ``src/``): boxes are priced through a
:class:`repro.partition.workmodel.WorkModel` -- its cached vector
(``model.vector`` / ``model.total`` / ``result.loads``) or, for one split
piece, ``model.work_row`` -- and a result with the model it carries.
Forbidden idioms::

    sum(work_of(b) for b in boxes)        # O(n) Python-level pricing
    out[rank] += work_of(box)             # per-box load accumulation

and the per-``Box`` face of ``repro.partition`` retired in PR 23, which
let a custom model weigh boxes with one formula and cut them with
another::

    CallableWorkModel, WorkFunction, default_work, _work_one
    split_to_target(box, ...)             # split_row_to_target(row, ...)
    result.loads(work_of=model)           # result.loads(): its own model
    from repro.util.geometry import Box   # in partition/: rows and columns

**Box metadata** (``partition/`` and ``amr/`` only): the columnar
refactor moved box metadata -- corners, levels, cell counts, SFC keys --
onto :class:`repro.util.geometry.BoxArray` column slices.  Per-box
Python loops over a ``BoxList``'s metadata in those packages are flagged::

    for b in boxes: ...                   # walk columns, not objects
    sum(b.num_cells for b in boxes)       # BoxArray.num_cells()/total_cells()
    sorted(boxes, key=...)                # corner_lexsort / sfc_sort_order

Loops that genuinely need per-box *objects* (allocating GridPatch field
storage, indexing a Box-keyed dict) carry a ``# per-box ok: <reason>``
marker on the offending line; the marker is the audit trail, not a
loophole -- new markers should be rare and justified in review.

**Rank scans** (``partition/`` only): placing a box must not scan every
rank.  An ``argmin`` / ``argmax`` call inside a loop body or
comprehension there is one O(ranks) numpy call per box (GreedyLPT's
placement was one, 60 k calls a sweep); pick from a heap keyed once per
run of equal work instead.  The same ``# per-box ok: <reason>`` marker
escapes a scan made once per run, not per box::

    for w in placed:
        r = int(np.argmin((loads + w) / caps))   # heap of (key, rank)

**Re-pricing** (``partition/`` only): the split kernel
(``splitting.py``) prices each piece it cuts exactly once and returns
the price with the piece; a partitioner carries that work with the row
(heap entry, deque slot) and hands it back when it cuts the row again.
A ``work_row(`` call anywhere else in the package prices a row a second
time, and an ``np.searchsorted`` call in a loop body is one numpy call
per queue event where ``bisect`` on a list does the same search::

    remaining -= model.work_row(*piece)   # (piece, piece_w), rest = split
    while rests:
        stop = np.searchsorted(base_w, w) # bisect_right(base_wl, w)

**Float sums** (``partition/`` and ``util/`` only): a work total is a
strict left fold, so targets and assignments do not depend on the
Python version.  Builtin ``sum`` over a list of floats is not one from
Python 3.12 on (it compensates rounding, Neumaier): ``sum([2.0**53,
1.0, 1.0])`` is ``2.0**53`` on 3.11 and ``2.0**53 + 2`` on 3.12::

    float(sum(vec.tolist()))              # float(np.cumsum(vec)[-1])

**Node state** (``comm/`` and ``runtime/`` only): pricing reads node
state as one vector per phase.  A ``state_of(`` call inside a ``for`` /
``while`` body or a comprehension is a per-pair/per-rank state query --
each one re-evaluates the whole generator table to read one scalar::

    for (src, dst), n in pair_bytes.items():
        cluster.state_of(src, t)          # Cluster.bandwidths(t)[src]
    [cluster.state_of(k, t) for k in live]  # bandwidths / effective_speeds

``monitor/`` is not checked: its sweep reads ``Cluster.resources(t)`` as
three columns, and only the first-sweep fallback for a node that was
never reached reads ``state_of(node, 0.0)`` node by node.

**Ghost geometry** (``amr/ghost.py`` only): which patch fills which ghost
cell is resolved from corner columns, once per layout.  A ``Box`` set
operation inside a loop or comprehension there is the per-fill object
walk coming back (it built 168 k throw-away boxes per ``chaos_amr``
pass)::

    for patch in level:
        patch.box.intersection(region)    # overlap_pairs on the columns
    [r.difference(b) for r in pieces]     # subtract on the corner columns

**Ownership** (all of ``src/`` outside the ``Layout`` class itself):
which rank owns which box is one :class:`repro.util.geometry.Layout`,
handed from the partitioner to the last consumer as columns.  The faces
it replaced -- a ``(Box, rank)`` pair list, a Box-keyed dict -- lift those
columns to per-box objects only for some consumer to lower them back::

    result.assignment                     # result.layout
    part.owners()                         # part.layout
    dict(zip(boxes, ranks))               # Layout(boxes, ranks)
    for box, rank in pairs: ...           # layout.boxes.array / layout.ranks

**Self-checks** (all of ``src/``): a partitioner certifies its output
from provenance (``check_tiling``: O(rows), testing only pairs of pieces
cut from one source, with a grid hash over the split pieces as the
fallback when those pairs are too many).  ``validate_covers`` grid-hashes
the whole output and is the provenance-free oracle of tests and
``bench/`` only; a call to it in the program is the full-output hash
coming back::

    result.validate_covers(boxes)         # check_tiling(boxes, layout, ...)

The syntax-tree rules test themselves on a planted offender at every run.

Run from the repo root (CI does)::

    python tools/check_vectorized_work.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Substrings that indicate scalar per-box work pricing (checked in all
#: of ``src/``).
FORBIDDEN_WORK = (
    "sum(work_of(",
    "work_of(b) for b",
    "work_of(box) for box",
    "+= work_of(",
)

#: Scalar box-metadata idioms (checked in the columnar core only).
FORBIDDEN_METADATA: tuple[tuple[re.Pattern[str], str], ...] = (
    (
        re.compile(r"for\s+(?:b|box)\s+in\s+boxes\b"),
        "per-box loop over a BoxList -- slice BoxArray columns instead",
    ),
    (
        re.compile(r"\.num_cells\s+for\s+(?:b|box)\s+in\b"),
        "per-box cell counting -- use BoxArray.num_cells()/total_cells()",
    ),
    (
        re.compile(r"sorted\(boxes"),
        "object sort over boxes -- use corner_lexsort()/sfc_sort_order()",
    ),
)

#: Retired per-``Box`` pricing names (checked in all of ``src/``).
RETIRED_WORK = (
    "CallableWorkModel",
    "WorkFunction",
    "split_to_target(",
    "default_work",
    "_work_one",
)

#: Functions that price a result with the model it carries -- no
#: ``work_of=`` override.
REPRICED = frozenset(
    {"loads", "work_vector", "load_imbalance", "makespan_estimate"}
)

#: The package whose currencies are BoxArray / BoxList / Layout / BoxRow.
PARTITION_DIR = SRC / "repro" / "partition"

#: Packages holding the columnar hot paths; metadata rules apply here.
METADATA_DIRS = (PARTITION_DIR, SRC / "repro" / "amr")

#: Modules exempt from the metadata rules: diagnostics that render a few
#: dozen boxes to text, where columns buy nothing.
ALLOWED_METADATA = {
    SRC / "repro" / "amr" / "viz.py",
}

#: Inline escape for loops that genuinely need Box objects.
PER_BOX_OK = "# per-box ok"

#: Packages that must read node state as columns, never node by node.
STATE_QUERY_DIRS = (SRC / "repro" / "comm", SRC / "repro" / "runtime")

_LOOPS = (
    ast.For,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


STATE_QUERIES = frozenset({"state_of"})

#: O(ranks) numpy scans no per-box loop in ``partition/`` may call.
RANK_SCANS = frozenset({"argmin", "argmax"})

#: The one module that may price a row (the split kernel), the row
#: pricing hook, and the per-event array search its callers replace
#: with ``bisect``.
SPLIT_KERNEL = PARTITION_DIR / "splitting.py"
ROW_PRICING = frozenset({"work_row"})
QUEUE_SEARCHES = frozenset({"searchsorted"})

#: Packages whose float reductions must be left folds.
FLOAT_SUM_DIRS = (PARTITION_DIR, SRC / "repro" / "util")

#: The whole-output oracle no program path may call.
ORACLES = frozenset({"validate_covers"})

#: The one module that resolves ghost sources, and the per-object ``Box``
#: set operations it must not loop over.
GHOST_MODULE = SRC / "repro" / "amr" / "ghost.py"
BOX_WALKS = frozenset({"intersection", "difference"})

#: Loop targets that spell a ``(box, rank)`` pair.
PAIR_BOX_NAMES = frozenset({"b", "box", "_"})
PAIR_RANK_NAMES = frozenset({"r", "rank", "owner", "_"})

_PLANTED_PAIR_FACES = """\
pairs = result.assignment
owners = part.owners()
by_box = dict(zip(part.boxes(), part.rank_vector()))
for box, rank in pairs:
    pass
ranks = [r for _, r in pairs]
boxes = BoxList(b for b, _ in pairs)
totals = dict(zip(keys, values))
for src, dst in moves:
    pass
for _, _ in moves:
    pass
class Layout:
    def pairs(self):
        return [(b, r) for b, r in zip(self.boxes, self.ranks)]
"""

_PLANTED_OFFENDER = """\
outside = a.intersection(b)
for patch in level:
    inter = patch.box.intersection(region)
    while pieces:
        rest = pieces.pop().difference(inter)
cluster.state_of(0, t)
busy = {k: cluster.state_of(k, t) for k in live}
"""

_PLANTED_RANK_SCAN = """\
best = int(np.argmin(keys))
for w in placed:
    r = int(np.argmin((loads + w) / caps))
    while todo:
        k = keys.argmax()
        j = np.argmax(keys)  # per-box ok: one scan per run
hot = [np.argmin(k) for k in rows]
"""

_PLANTED_REPRICING = """\
def work_row(self, lower, upper, level):
    return super().work_row(lower, upper, level)
stop = int(np.searchsorted(base_w, top, side="right"))
while rests:
    stop = int(np.searchsorted(base_w, rests[0][0], side="right"))
    remaining -= model.work_row(*piece)
    stop = bisect_right(base_wl, rests[0][0], cursor)
heap = [(model.work_row(*r), r) for r in rest]
"""

_PLANTED_LIST_SUM = """\
total = float(sum(vec.tolist()))
total = sum(works)
total = np.sum(vec.tolist())
total = sum(model.vector(boxes).tolist(), 0.0)
"""

_PLANTED_ORACLE = """\
class PartitionResult:
    def validate_covers(self, original):
        'Tests call result.validate_covers(boxes).'
# result.validate_covers(boxes)
result.validate_covers(boxes)
check(validate_covers(result, boxes))
"""


_PLANTED_RETIRED_WORK = """\
from repro.util.geometry import Box, BoxList
from repro.util.geometry import BoxArray
model = CallableWorkModel(default_work)
piece, rest = split_to_target(box, 1.0, model)
piece, rest = split_row_to_target(row, 1.0, model)
loads = result.loads(work_of=model)
imb = load_imbalance(result, work_of=model, targets=t)
result = partitioner.partition(boxes, caps, work_of=model)
loads = result.loads()
"""


def substring_hits(source: str, patterns: tuple[str, ...]) -> list[tuple[int, str]]:
    """``(line number, pattern)`` for every non-comment line containing
    one of ``patterns``."""
    return [
        (lineno, pattern)
        for lineno, line in enumerate(source.splitlines(), start=1)
        if not line.strip().startswith("#")
        for pattern in patterns
        if pattern in line
    ]


def repricing_overrides(source: str) -> list[int]:
    """Line numbers of calls handing one of :data:`REPRICED` a
    ``work_of=`` keyword."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and not REPRICED.isdisjoint(
            (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        )
        and any(kw.arg == "work_of" for kw in node.keywords)
    )


def box_imports(source: str) -> list[int]:
    """Line numbers of ``from ... import Box`` statements."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "Box" for alias in node.names)
    )


def _call_lines(tree: ast.AST, names: frozenset[str]) -> set[int]:
    """Line numbers of calls to any of ``names`` (as ``f(...)`` or
    ``x.f(...)``) under ``tree``."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and not names.isdisjoint(
            (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        )
    }


def named_calls(source: str, names: frozenset[str]) -> list[int]:
    """Line numbers of calls to any of ``names`` anywhere in ``source``."""
    return sorted(_call_lines(ast.parse(source), names))


def looped_calls(source: str, names: frozenset[str]) -> list[int]:
    """Line numbers of calls to any of ``names`` inside a loop body or
    comprehension."""
    lines = set()
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, _LOOPS):
            lines |= _call_lines(loop, names)
    return sorted(lines)


def list_sums(source: str) -> list[int]:
    """Line numbers of builtin ``sum(<array>.tolist(), ...)`` calls."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "sum"
        and node.args
        and isinstance(node.args[0], ast.Call)
        and getattr(node.args[0].func, "attr", None) == "tolist"
    )


def rank_scans(source: str) -> list[int]:
    """Line numbers of :data:`RANK_SCANS` calls in a loop or
    comprehension, less those carrying the ``# per-box ok`` marker."""
    lines = source.splitlines()
    return [
        lineno
        for lineno in looped_calls(source, RANK_SCANS)
        if PER_BOX_OK not in lines[lineno - 1]
    ]


def pair_faces(source: str) -> list[int]:
    """Line numbers spelling box ownership as pairs or a Box-keyed dict:
    an ``.assignment`` read, an ``.owners()`` call, a ``dict(zip(<boxes>,
    <ranks>))`` or a ``for <box>, <rank> in`` loop/comprehension --
    anywhere but inside ``class Layout``."""
    lines = set()

    def is_pair_target(target: ast.expr) -> bool:
        if not isinstance(target, ast.Tuple) or len(target.elts) != 2:
            return False
        if not all(isinstance(e, ast.Name) for e in target.elts):
            return False
        box, rank = (e.id for e in target.elts)
        return (
            box in PAIR_BOX_NAMES
            and rank in PAIR_RANK_NAMES
            and (box, rank) != ("_", "_")
        )

    def is_box_rank_zip(node: ast.Call) -> bool:
        if getattr(node.func, "id", None) != "dict" or len(node.args) != 1:
            return False
        inner = node.args[0]
        if not isinstance(inner, ast.Call) or len(inner.args) != 2:
            return False
        if getattr(inner.func, "id", None) != "zip":
            return False
        boxes, ranks = (ast.unparse(a).lower() for a in inner.args)
        return "box" in boxes and ("rank" in ranks or "owner" in ranks)

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name == "Layout":
            return
        if isinstance(node, ast.Attribute) and node.attr == "assignment":
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "owners"
            or is_box_rank_zip(node)
        ):
            lines.add(node.lineno)
        elif isinstance(node, (ast.For, ast.comprehension)) and is_pair_target(
            node.target
        ):
            lines.add(node.target.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


def self_test() -> list[str]:
    """The syntax-tree rules must flag exactly the planted offenders."""
    failures = []
    got = pair_faces(_PLANTED_PAIR_FACES)
    if got != [1, 2, 3, 4, 6, 7]:
        failures.append(
            f"lint self-test: pair faces flagged lines {got} of the planted"
            f" offender, expected [1, 2, 3, 4, 6, 7]"
        )
    for rule, expected in (
        (
            lambda src: substring_hits(src, RETIRED_WORK),
            [
                (3, "CallableWorkModel"),
                (3, "default_work"),
                (4, "split_to_target("),
            ],
        ),
        (repricing_overrides, [6, 7]),
        (box_imports, [1]),
    ):
        got = rule(_PLANTED_RETIRED_WORK)
        if got != expected:
            failures.append(
                f"lint self-test: retired work faces flagged {got} of the"
                f" planted offender, expected {expected}"
            )
    for names, expected in (
        (BOX_WALKS, [3, 5]),
        (STATE_QUERIES, [7]),
    ):
        got = looped_calls(_PLANTED_OFFENDER, names)
        if got != expected:
            failures.append(
                f"lint self-test: {sorted(names)} flagged lines {got} of the"
                f" planted offender, expected {expected}"
            )
    got = rank_scans(_PLANTED_RANK_SCAN)
    if got != [3, 5, 7]:
        failures.append(
            f"lint self-test: rank scans flagged lines {got} of the"
            f" planted offender, expected [3, 5, 7]"
        )
    for rule, names, expected in (
        (named_calls, ROW_PRICING, [2, 6, 8]),
        (looped_calls, QUEUE_SEARCHES, [5]),
    ):
        got = rule(_PLANTED_REPRICING, names)
        if got != expected:
            failures.append(
                f"lint self-test: re-pricing {sorted(names)} flagged lines"
                f" {got} of the planted offender, expected {expected}"
            )
    got = list_sums(_PLANTED_LIST_SUM)
    if got != [1, 4]:
        failures.append(
            f"lint self-test: list sums flagged lines {got} of the"
            f" planted offender, expected [1, 4]"
        )
    got = named_calls(_PLANTED_ORACLE, ORACLES)
    if got != [5, 6]:
        failures.append(
            f"lint self-test: oracle calls flagged lines {got} of the"
            f" planted offender, expected [5, 6]"
        )
    return failures


def main() -> int:
    violations: list[str] = self_test()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT)
        check_metadata = (
            any(path.is_relative_to(d) for d in METADATA_DIRS)
            and path not in ALLOWED_METADATA
        )
        source = path.read_text(encoding="utf-8")
        if any(path.is_relative_to(d) for d in STATE_QUERY_DIRS):
            violations.extend(
                f"{rel}:{lineno}: per-pair/per-rank `state_of(` in a loop"
                f" -- use Cluster.bandwidths()/effective_speeds()"
                for lineno in looped_calls(source, STATE_QUERIES)
            )
        if path == GHOST_MODULE:
            violations.extend(
                f"{rel}:{lineno}: per-object Box set operation in a loop"
                f" -- resolve overlaps with overlap_pairs on corner columns"
                for lineno in looped_calls(source, BOX_WALKS)
            )
        violations.extend(
            f"{rel}:{lineno}: `validate_covers(` in the program -- certify"
            f" from provenance with check_tiling; the oracle is for tests"
            for lineno in named_calls(source, ORACLES)
        )
        violations.extend(
            f"{rel}:{lineno}: `work_of=` re-pricing override -- a result"
            f" is priced with the model it carries"
            for lineno in repricing_overrides(source)
        )
        if any(path.is_relative_to(d) for d in FLOAT_SUM_DIRS):
            violations.extend(
                f"{rel}:{lineno}: builtin `sum(...tolist())` -- from Python"
                f" 3.12 it compensates float rounding (Neumaier), so it is"
                f" not a left fold; use np.cumsum(vec)[-1]"
                for lineno in list_sums(source)
            )
        if path.is_relative_to(PARTITION_DIR):
            violations.extend(
                f"{rel}:{lineno}: partition/ imports Box -- its currencies"
                f" are BoxArray / BoxList / Layout / BoxRow"
                for lineno in box_imports(source)
            )
            violations.extend(
                f"{rel}:{lineno}: O(ranks) `argmin`/`argmax` scan per box"
                f" -- pick from a heap keyed once per run"
                for lineno in rank_scans(source)
            )
            if path != SPLIT_KERNEL:
                violations.extend(
                    f"{rel}:{lineno}: `work_row(` outside the split kernel"
                    f" -- carry the work split_row_to_target returned"
                    for lineno in named_calls(source, ROW_PRICING)
                )
            violations.extend(
                f"{rel}:{lineno}: `searchsorted` in a loop -- one numpy call"
                f" per queue event; bisect a list once per call instead"
                for lineno in looped_calls(source, QUEUE_SEARCHES)
            )
        for patterns, what in (
            (FORBIDDEN_WORK, "scalar work loop `{}` -- use WorkModel.vector()/total()"),
            (RETIRED_WORK, "retired per-Box pricing face `{}` -- subclass WorkModel"),
        ):
            violations.extend(
                f"{rel}:{lineno}: {what.format(pattern)} instead"
                for lineno, pattern in substring_hits(source, patterns)
            )
        violations.extend(
            f"{rel}:{lineno}: box ownership spelled as pairs or a"
            f" Box-keyed dict -- pass the Layout (boxes + ranks columns)"
            for lineno in pair_faces(source)
        )
        for lineno, line in enumerate(source.splitlines(), start=1):
            if line.strip().startswith("#"):
                continue
            if not check_metadata or PER_BOX_OK in line:
                continue
            for regex, hint in FORBIDDEN_METADATA:
                if regex.search(line):
                    violations.append(
                        f"{rel}:{lineno}: scalar box metadata"
                        f" `{regex.pattern}` -- {hint}"
                    )
    if violations:
        print("scalar per-box idioms outside the allowed modules:")
        for v in violations:
            print(f"  {v}")
        return 1
    print("vectorized-work check: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
