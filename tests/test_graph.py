import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdom import (
    ExtremalSpec,
    Graph,
    GraphFormatError,
    Matching,
    Mode,
    SignFunction,
    ThreeSatFormula,
    build_extremal,
    complete,
    complete_bipartite,
    cycle,
    emit_certificate,
    emit_graph,
    one_factorization,
    parse_certificate,
    parse_cnf,
    parse_graph,
    path,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
)
from sgdom import extremal, reductions
from sgdom import graph as graph_module
from sgdom.graph import _MAX_ORDER, _emit_rows, _entry_keys, _number
from sgdom.reductions import emit_provenance

from conftest import (
    assert_format_error,
    circle_round,
    format_error_cases,
    loop_certificate_text,
    loop_cnf_text,
    loop_graph_text,
    loop_provenance_text,
    random_connected_graph,
    reference_graph,
)


class TestParse:
    def test_path_on_three_vertices(self):
        g = parse_graph("p sgd 3 2\ne 1 2\ne 2 3")
        assert g.n == 3 and g.m == 2
        assert g.neighbors(1) == (0, 2)

    def test_single_isolated_vertex(self):
        g = parse_graph("p sgd 1 0")
        assert g.n == 1 and g.m == 0

    def test_comments_and_blank_lines_ignored(self):
        g = parse_graph("c a comment\n\np sgd 2 1\nc another\ne 1 2\n")
        assert g.m == 1

    @pytest.mark.parametrize(
        "text, line, message",
        format_error_cases(
            ("p sgd 2 1\ne 1 1", 2, "self-loop at vertex 1"),
            ("p sgd 2 2\ne 1 2\ne 2 1", 3, "duplicate edge (1, 2)"),
            ("p sgd 2 2\ne 1 2", None, "header declares 2 edges, found 1"),
            ("p sgd 2 1\ne 1 3", 2, "vertex out of range in 'e 1 3'"),
            # Vertices are 1-indexed.
            ("p sgd 2 1\ne 0 1", 2, "vertex out of range in 'e 0 1'"),
            ("p wrong 2 1\ne 1 2", 1, "malformed header 'p wrong 2 1'"),
            ("e 1 2\np sgd 2 1", 1, "'e' before header"),
            ("c note\ne 1 2\np sgd 2 1", 2, "'e' before header"),
            ("p sgd 2 1\nq 1 2", 2, "unrecognized line 'q 1 2'"),
            ("p sgd 3 1\nx 1 2", 2, "unrecognized line 'x 1 2'"),
            ("p sgd 2 1\ne 1 2\np sgd 2 1\n", 3, "duplicate header"),
            ("", None, "missing header"),
            ("c only\n\nc more\n", None, "missing header"),
        ),
    )
    def test_format_errors(self, text, line, message):
        assert_format_error(parse_graph, text, line, message)

    def test_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_graph("p sgd 2 1\ne 1 1")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_graph, "p sgd 1000000000000 0"),
            (parse_graph, "p sgd 4194305 0"),
            (parse_certificate, "s sgd-cert 1000000000000 1 closed"),
            (parse_cnf, "p cnf 1000000000000 1"),
        ],
    )
    def test_header_count_cap(self, parse, text):
        # Refused at the header, before anything is allocated for the count.
        with pytest.raises(GraphFormatError, match="^line 1: count too large"):
            parse(text)

    def test_vertex_beyond_int64_is_out_of_range(self):
        with pytest.raises(
            GraphFormatError, match="^line 3: vertex out of range in 'e 99999999999999999999 1'"
        ):
            parse_graph("p sgd 2 2\ne 1 2\ne 99999999999999999999 1")

    def test_python_int_syntax(self):
        # Tokens are read by Python's int: signs, underscores, other digits.
        g = parse_graph("p sgd 12 2\ne +1 1_0\ne \u0663 12")
        assert list(g.edges()) == [(0, 9), (2, 11)]


def _edge_message(n, edge, reason):
    """Graph's ValueError text for the first bad edge."""
    if reason == "pair":
        return f"edge {edge!r} is not a pair of vertices"
    u, v = edge
    return {
        "range": f"edge ({u},{v}) out of range for n={n}",
        "loop": f"self-loop at vertex {u}",
        "duplicate": f"duplicate edge ({u},{v})",
    }[reason]


@st.composite
def _edge_lists(draw):
    """(n, edges): distinct pairs in either orientation, with up to three
    out-of-range edges (among them vertices far below 0 and beyond int64),
    self-loops, repeats of an earlier edge (either orientation) and 3-tuples
    inserted anywhere."""
    n = draw(st.integers(0, 8))
    vertex = st.integers(0, max(n - 1, 0))
    pair = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = draw(
        st.lists(pair, unique_by=lambda e: (min(e), max(e)), max_size=12 if n >= 2 else 0)
    )
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(vertex), draw(vertex)
        bad = [(u, draw(st.sampled_from([-1, n, n + 3, -(2**40), 2**63]))), (u, u), (u, v, u)]
        if edges:
            a, b = draw(st.sampled_from(edges))[:2]
            bad += [(a, b), (b, a)]
        edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(bad)))
    return n, edges


@settings(max_examples=200)
@given(case=_edge_lists())
def test_graph_matches_reference(case):
    """Graph raises exactly when the per-edge reference does, naming the
    same first bad edge; otherwise every query agrees with it."""
    n, edges = case
    adj, bad = reference_graph(n, edges)
    if bad is not None:
        i, reason = bad
        with pytest.raises(ValueError) as exc:
            Graph(n, edges)
        assert str(exc.value) == _edge_message(n, edges[i], reason)
        return
    g = Graph(n, edges)
    assert g.m == len(edges)
    assert [list(g.neighbors(v)) for v in range(n)] == adj
    assert [g.degree(v) for v in range(n)] == [len(a) for a in adj]
    assert list(g.edges()) == sorted((min(e), max(e)) for e in edges)
    assert all(g.has_edge(u, v) == (v in adj[u]) for u in range(n) for v in range(n))
    if n:
        assert g.min_degree == min(map(len, adj))
        assert g.max_degree == max(map(len, adj))


def _assert_matches_reference(n, edges):
    """Graph(n, edges) has the reference's rows, as CSR arrays, or raises
    the reference's error text."""
    adj, bad = reference_graph(n, edges)
    if bad is not None:
        i, reason = bad
        with pytest.raises(ValueError) as exc:
            Graph(n, edges)
        assert str(exc.value) == _edge_message(n, tuple(edges[i]), reason)
        return
    g = Graph(n, edges)
    assert g.m == len(edges)
    assert g._ptr.dtype == g._nbr.dtype == np.int64
    assert g._ptr.tolist() == np.cumsum([0] + [len(a) for a in adj]).tolist()
    assert g._nbr.tolist() == [v for a in adj for v in a]


def _builder_edge_lists():
    """(n, edges) of every Graph that the reducers and build_extremal
    construct from small sources, as the arrays they pass."""
    calls = []

    def record(n, edges):
        calls.append((n, np.array(edges)))
        return Graph(n, edges)

    rng = random.Random(3)
    with mock.patch.object(reductions, "Graph", record), mock.patch.object(
        extremal, "Graph", record
    ):
        for k in (1, 2):
            g = random_connected_graph(rng, 12, 0.3)
            reduce_mds(g, k)
            reduce_mtds(g, k)
            clauses = tuple(tuple(rng.sample(range(1, 9), 3)) for _ in range(10))
            reduce_1in3(ThreeSatFormula(8, clauses), k)
        build_extremal(ExtremalSpec(1, 2, 3, 4, Mode.CLOSED))
        build_extremal(ExtremalSpec(2, 4, 5, 6, Mode.TOTAL))
    return calls


def test_graph_matches_reference_at_scale():
    """Long edge lists, shuffled and in either orientation, from random
    graphs of up to 300 vertices and from the reducers and build_extremal:
    the rows equal the reference's. With bad edges placed late (out of
    range, self-loops, repeats in either orientation, and a second bad edge
    after the first) Graph names the reference's first bad edge."""
    rng = random.Random(20261019)
    cases = []
    for _ in range(30):
        n = rng.randint(2, 300)
        pairs = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))}
        cases.append((n, list({(min(e), max(e)): e for e in pairs}.values())))
    cases += [(n, [tuple(e) for e in edges.tolist()]) for n, edges in _builder_edge_lists()]
    checked = 0
    for n, edges in cases:
        edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
        for listing in (edges, rng.sample(edges, len(edges))):
            _assert_matches_reference(n, listing)
            _assert_matches_reference(n, np.array(listing, dtype=np.int64).reshape(-1, 2))
            if not listing:
                continue
            u, v = rng.choice(listing)
            for bad in [(u, n), (-1, v), (n + 5, u), (u, u), (u, v), (v, u)]:
                late = rng.randint(len(listing) * 3 // 4, len(listing))
                spoilt = listing[:late] + [bad] + listing[late:]
                _assert_matches_reference(n, spoilt)
                _assert_matches_reference(n, spoilt + [(v, v), (u, n)])
                checked += 1
    assert checked > 200


@pytest.mark.parametrize("n", [2**16 - 1, 2**16, 2**16 + 1])
def test_key_width_switch(n):
    """Keys of two vertices are uint32 up to order 2^16 and int64 above it.
    With edges at vertex n - 1, whose key has the top bit of a uint32 at
    order 2^16, the rows equal the reference's (values and dtypes), and a
    repeat of such an edge is named. numpy wraps a uint32 silently, so only
    the rows show an overflow."""
    top = n - 1
    edges = [(top, 0), (1, top), (top - 1, top), (n // 2, top - 2), (0, 1)]
    with mock.patch.object(graph_module, "_entry_keys", wraps=_entry_keys) as keys:
        _assert_matches_reference(n, edges)
    assert keys.call_args.args[2] == (np.uint32 if n <= 2**16 else np.int64)
    _assert_matches_reference(n, edges + [(top, top - 1)])
    _assert_matches_reference(n, edges + [(0, top)])
    _assert_matches_reference(n, edges + [(top, n)])


def test_order_limit_keeps_the_keys_in_int64():
    """Graph refuses an order above _MAX_ORDER before it allocates anything;
    at that order the entry keys of the largest vertices stay below 2^62 and
    sort as the entries do, so the checks on edges among them name the
    right edge. No test builds such a graph: its rows would need 16 GiB."""
    with pytest.raises(ValueError, match=f"^vertex count {_MAX_ORDER + 1} exceeds {_MAX_ORDER}$"):
        Graph(_MAX_ORDER + 1)
    with pytest.raises(ValueError, match="exceeds"):
        Graph(10**30, [(0, 1)])
    top = _MAX_ORDER - 1
    pairs = np.array([(top, top - 1), (0, top), (top, 0), (top - 1, 1)], dtype=np.int64)
    key = _entry_keys(top.bit_length(), pairs)
    entries = np.column_stack((pairs.ravel(), pairs[:, ::-1].ravel())).tolist()
    assert key.max() < 2**62
    assert np.argsort(key, kind="stable").tolist() == sorted(
        range(len(entries)), key=entries.__getitem__
    )
    for edges, message in [
        ([(top, top - 1), (0, top), (top, 0)], f"duplicate edge ({top},0)"),
        ([(top, top - 1), (top - 1, 1), (1, top - 1)], f"duplicate edge (1,{top - 1})"),
        ([(top, 1), (top, top)], f"self-loop at vertex {top}"),
        ([(top, 1), (top, top + 1), (top, top)], f"edge ({top},{top + 1}) out of range"),
    ]:
        with pytest.raises(ValueError) as exc:
            Graph(_MAX_ORDER, edges)
        assert str(exc.value).startswith(message)


@settings(max_examples=200)
@given(case=_edge_lists(), data=st.data())
def test_parse_graph_names_reference_line(case, data):
    """The same edge lists as 1-indexed `p sgd` text, with comment lines in
    between: an error names the line of the reference's first bad edge."""
    n, edges = case
    lines = [f"p sgd {n} {len(edges)}"]
    edge_line = []
    for edge in edges:
        if data.draw(st.booleans()):
            lines.append("c between edges")
        lines.append(" ".join(["e", *(str(x + 1) for x in edge)]))
        edge_line.append(len(lines))
    text = "\n".join(lines)
    adj, bad = reference_graph(n, edges)
    if bad is None:
        g = parse_graph(text)
        assert [list(g.neighbors(v)) for v in range(n)] == adj
        return
    i, reason = bad
    e = [x + 1 for x in edges[i]]
    message = {
        "pair": f"malformed edge line {' '.join(['e', *map(str, e)])!r}",
        "range": f"vertex out of range in {f'e {e[0]} {e[1]}'!r}",
        "loop": f"self-loop at vertex {e[0]}",
        "duplicate": f"duplicate edge {(min(e), max(e))}",
    }[reason]
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == f"line {edge_line[i]}: {message}"


# Each format: parser, header and body-line templates, and the emitter that
# must round-trip whatever parses (None: the CNF format has no emitter).
# Counts stay small so that most headers fit the body lines drawn; counts
# above the reader's cap are refused (TestParse.test_header_count_cap).
_COUNT = st.integers(-1, 64).map(str)
_SMALL = st.integers(-1, 6).map(str)
_LITERAL = st.integers(1, 6).map(str)
_FORMATS = {
    "graph": (
        parse_graph,
        ("p", "sgd", _COUNT, _SMALL),
        ("e", _SMALL, _SMALL),
        emit_graph,
    ),
    "certificate": (
        parse_certificate,
        ("s", "sgd-cert", _SMALL, _SMALL, st.sampled_from(["closed", "total"])),
        ("v", _SMALL, st.sampled_from(["+1", "-1", "1"])),
        lambda parsed: emit_certificate(parsed[2], parsed[0], parsed[1]),
    ),
    "cnf": (parse_cnf, ("p", "cnf", _COUNT, _SMALL), (_LITERAL,) * 3 + ("0",), None),
}
_WORDS = ["p", "s", "e", "v", "c", "sgd", "sgd-cert", "cnf", "closed", "+1", "-1", "0"]


@st.composite
def _format_text(draw, header, body):
    """Mostly a header and then body lines; a line may also be a stray
    header or blank, and one token in ten is a format word, a small integer
    or junk instead of what the template says."""
    other = st.sampled_from(_WORDS) | _SMALL | st.text(max_size=2)
    templates = draw(st.lists(st.sampled_from([body, body, body, header, ()]), max_size=6))
    # Hypothesis favours the ends of a range, so the rare choices test for a
    # middle value.
    if draw(st.integers(0, 4)) != 2:
        templates.insert(0, header)
    lines = []
    for template in templates:
        tokens = [
            draw(other) if draw(st.integers(0, 9)) == 5
            else (part if isinstance(part, str) else draw(part))
            for part in template
        ]
        if draw(st.integers(0, 9)) == 5:
            tokens.append(draw(other))
        lines.append(" ".join(tokens))
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
@settings(max_examples=100)
@given(data=st.data())
def test_parsers_fuzz(fmt, data):
    """Every input parses or raises GraphFormatError; bytes that are not
    UTF-8 raise GraphFormatError; what parses round-trips."""
    parse, header, body, emit = _FORMATS[fmt]
    text = data.draw(_format_text(header, body))
    try:
        parsed = parse(text)
    except GraphFormatError:
        parsed = None
    if parsed is not None and emit is not None:
        assert parse(emit(parsed)) == parsed
    raw = text.encode("utf-8")
    cut = data.draw(st.integers(0, len(raw)))
    with pytest.raises(GraphFormatError):
        parse(raw[:cut] + b"\xff" + raw[cut:])


@st.composite
def _graphs(draw):
    """A graph of up to 12 edges; some have a large order, so that vertex
    numbers of up to 7 digits occur."""
    n = draw(st.integers(0, 30) | st.sampled_from([999, 1_000_000]))
    if n < 2:
        return Graph(n)
    vertex = st.integers(0, n - 1) | st.sampled_from([0, n - 2, n - 1])
    pair = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, unique_by=lambda e: (min(e), max(e)), max_size=12))
    return Graph(n, edges)


def _contents(parsed):
    """A parse result, with a Graph as its order and edge list: Graph's ==
    derives a tuple per vertex, slow at a million vertices."""
    if isinstance(parsed, Graph):
        return parsed.n, list(parsed.edges())
    return parsed


_sign_functions = st.lists(st.sampled_from([-1, 1]), max_size=40).map(
    lambda values: SignFunction(tuple(values))
)


@st.composite
def _formulas(draw):
    """A formula of up to 12 clauses; some have many variables, so that
    literals of up to 7 digits occur."""
    n = draw(st.integers(3, 30) | st.sampled_from([999, 1_000_000]))
    literal = st.integers(1, n) | st.sampled_from([1, n - 1, n])
    clause = st.lists(literal, min_size=3, max_size=3, unique=True).map(tuple)
    return ThreeSatFormula(n, tuple(draw(st.lists(clause, max_size=12))))


def _plus_signed(text):
    """Text with the same contents: a `+` before each body number that has
    no sign."""
    head, body = text.split("\n", 1)
    return f"{head}\n{re.sub(r'(?<![-+0-9])(?=[0-9])', '+', body)}"


def _zero_padded(text):
    """Canonical text with the same contents: each body number that is not a
    sign padded with leading zeros to 7 digits, and each `+1` sign written
    `1`."""
    head, body = text.split("\n", 1)
    body = re.sub(r"(?<![-+0-9])[0-9]+", lambda run: run[0].zfill(7), body)
    return f"{head}\n{body.replace('+1', '1')}"


@settings(max_examples=100)
@given(
    g=_graphs(), f=_sign_functions, k=st.integers(1, 4), mode=st.sampled_from(list(Mode)),
    formula=_formulas(),
)
def test_emitted_text_reads_back_in_the_fast_lane(g, f, k, mode, formula):
    """What the emitters write is read back equal, as str and as bytes,
    without the per-line path; the emitters write the per-line reference
    text byte for byte. Canonical CNF text is read in the fast lane too, and
    so is text with leading zeros, unsigned signs or a sign on every
    number."""
    graph_text = emit_graph(g)
    cert_text = emit_certificate(f, k, mode)
    cnf_text = loop_cnf_text(formula)
    assert graph_text == loop_graph_text(g)
    assert cert_text == loop_certificate_text(f, k, mode)
    refuse = mock.Mock(side_effect=AssertionError("per-line path taken"))
    with mock.patch("sgdom.graph._line_rows", refuse):
        for text in (graph_text, graph_text.encode("ascii")):
            assert _contents(parse_graph(text)) == _contents(g)
        for text in (cert_text, cert_text.encode("ascii")):
            assert parse_certificate(text) == (k, mode, f)
        for text in (cnf_text, cnf_text.encode("ascii")):
            assert parse_cnf(text) == formula
        assert _contents(parse_graph(_zero_padded(graph_text))) == _contents(g)
        assert parse_certificate(_zero_padded(cert_text)) == (k, mode, f)
        assert parse_cnf(_zero_padded(cnf_text)) == formula
        assert _contents(parse_graph(_plus_signed(graph_text))) == _contents(g)
        assert parse_certificate(_plus_signed(cert_text)) == (k, mode, f)
        assert parse_cnf(_plus_signed(cnf_text)) == formula


def test_long_emitted_text_reads_back_in_the_fast_lane():
    g = complete(150)
    f = SignFunction((1, -1, -1) * 4000)
    refuse = mock.Mock(side_effect=AssertionError("per-line path taken"))
    with mock.patch("sgdom.graph._line_rows", refuse):
        assert parse_graph(emit_graph(g)) == g
        assert parse_certificate(emit_certificate(f, 2, Mode.TOTAL)) == (2, Mode.TOTAL, f)


# (header, _read_body's format arguments) of each format.
_READERS = {
    "graph": ("p sgd 5 2", ("p", "sgd", (int, int), "e", 2)),
    "certificate": ("s sgd-cert 5 1 closed", ("s", "sgd-cert", (int, int, Mode), "v", 2)),
    "cnf": ("p cnf 5 1", ("p", "cnf", (int, int), None, 4)),
}


@pytest.mark.parametrize("fmt", sorted(_READERS))
def test_canonical_lane_holds_seven_digits(fmt):
    """The canonical lane adds digits in int32: the widest numbers it takes,
    +-9999999 and 0000007, read as the per-line lane reads them, and a
    number of eight digits goes to the per-line lane."""
    head, (tag, magic, header, line_tag, width) = _READERS[fmt]

    def body(numbers):
        fields = ([line_tag] if line_tag else []) + numbers
        return f"{head}\n{' '.join(fields)}\n"

    numbers = ["9999999", "-9999999", "0000007", "+9999999"]
    for text in (body((numbers[r:] + numbers[:r])[:width]) for r in range(len(numbers))):
        fast = graph_module._canonical_rows(text, tag, magic, header, line_tag, width)
        slow = graph_module._line_rows(text, tag, magic, header, line_tag, width, None)
        assert fast is not None
        assert fast[0] == slow[0] and fast[3] is slow[3] is None
        assert fast[1].dtype == slow[1].dtype == np.int64
        assert fast[1].tolist() == slow[1].tolist()
        assert list(fast[2]) == list(slow[2]) == [2]
    for wide in ("12345678", "-99999999", "00000007"):
        text = body([wide] + numbers[1:width])
        assert graph_module._canonical_rows(text, tag, magic, header, line_tag, width) is None
        rows = graph_module._line_rows(text, tag, magic, header, line_tag, width, None)[1]
        assert rows[0, 0] == int(wide)


def _percent_text(head, line, rows):
    """The reference writer: head, then `line` formatted by `%` with each
    row."""
    return head + "".join(line % tuple(row) for row in rows)


# Written values on both sides of each digit count up to 7 digits; the
# largest are given as explicit examples, with offsets that keep their tables
# small.
_BOUNDARIES = [0] + [b for d in range(1, 7) for b in (10**d - 1, 10**d)]


@st.composite
def _layouts(draw):
    """Fields (prefix, written values, offset) of equal length, and the
    suffix that ends each line."""
    rows = draw(st.integers(0, 12))
    fields = []
    prefixes = ["", "e ", "v ", " ", ",", " variable_block(", " clique_block("]
    for prefix in draw(st.lists(st.sampled_from(prefixes), min_size=1, max_size=3)):
        value = st.sampled_from(_BOUNDARIES) | st.integers(0, 2000)
        values = draw(st.lists(value, min_size=rows, max_size=rows))
        fields.append((prefix, values, draw(st.integers(0, min(values, default=0)))))
    return fields, draw(st.sampled_from(["", "\n", ")\n"]))


@settings(max_examples=100)
@given(layout=_layouts(), block=st.sampled_from([1, 2, 3, graph_module._EMIT_BLOCK]))
@example(
    layout=(
        [
            (" variable_block(", [9_999_999, 9_999_990], 9_999_990),
            (",", [2**22, 2**22 - 1], 2**22 - 1),
        ],
        ")\n",
    ),
    block=1,
)
@example(
    layout=([("e ", [999_999, 10**6, 10**6], 999_990), (" ", [2**22] * 3, 2**22)], "\n"), block=3
)
def test_writer_matches_percent_formatting(layout, block):
    """The word-table writer spells each field as `%d` does: values at digit
    boundaries, a prefix longer than a word, a two-byte suffix, no rows,
    and blocks of 1-3 rows, a row count a multiple of the block included."""
    fields, suffix = layout
    line = "".join(prefix + "%d" for prefix, _, _ in fields) + suffix
    rows = list(zip(*(values for _, values, _ in fields)))
    last = len(fields) - 1
    written = [
        _number(np.array(values, dtype=np.int64) - offset, offset, prefix, suffix * (i == last))
        for i, (prefix, values, offset) in enumerate(fields)
    ]
    with mock.patch.object(graph_module, "_EMIT_BLOCK", block):
        assert _emit_rows("head\n", *written) == _percent_text("head\n", line, rows)


def test_writers_on_empty_bodies():
    assert emit_graph(Graph(0, [])) == loop_graph_text(Graph(0, [])) == "p sgd 0 0\n"
    assert emit_certificate(SignFunction(()), 2, Mode.TOTAL) == "s sgd-cert 0 2 total\n"
    art = reduce_1in3(ThreeSatFormula(2, ()), 1)
    assert art.graph.n == 8 and len(art.labels[0][1][0]) == 0  # a clause run of no rows
    assert emit_graph(art.graph) == loop_graph_text(art.graph)
    assert emit_provenance(art) == loop_provenance_text(art.provenance)


def test_digit_cache_grown_between_calls():
    """A small graph, then a large one, whose numbers grow the cache, then
    the small one again: the same text, the reference's."""
    small, large = path(12), path(5000)
    with mock.patch.object(graph_module, "_DIGITS", graph_module._DIGITS[:10]):
        first = emit_graph(small)
        assert len(graph_module._DIGITS) < 5000
        assert emit_graph(large) == loop_graph_text(large)
        assert len(graph_module._DIGITS) >= 5000
        assert emit_graph(small) == first == loop_graph_text(small)


def test_writer_refuses_more_than_seven_digits():
    with pytest.raises(ValueError, match="cannot write 10000000: more than 7 digits"):
        _number(np.array([9_999_999]), 1)


def _perturbations(tag):
    """Edits of a canonical text's lines (header first): each makes the text
    non-canonical, wrong, or both. `tag` is the body-line tag, or None for
    the untagged CNF clauses; a clause made up here ends in `3 0`."""

    def line(*fields):
        return " ".join([tag, *fields] if tag else [*fields, "3", "0"])

    return {
        "comment line": lambda lines, i: lines[:i] + ["c note"] + lines[i:],
        "blank line": lambda lines, i: lines[:i] + [""] + lines[i:],
        "crlf": lambda lines, i: [line + "\r" for line in lines],
        "one crlf": lambda lines, i: lines[:i] + [lines[i] + "\r"] + lines[i + 1:],
        "line separator": lambda lines, i: lines[:i] + [lines[i] + "\x0bx"] + lines[i + 1:],
        "tab": lambda lines, i: lines[:i] + [lines[i].replace(" ", "\t", 1)] + lines[i + 1:],
        "double space": lambda lines, i: lines[:i] + [lines[i].replace(" ", "  ")] + lines[i + 1:],
        "plus sign": lambda lines, i: lines[:i] + [lines[i].replace(" ", " +", 1)] + lines[i + 1:],
        "leading zero": lambda lines, i: lines[:i] + [lines[i].replace(" ", " 0", 1)] + lines[i + 1:],
        "minus sign": lambda lines, i: lines[:i] + [lines[i].replace(" ", " -", 1)] + lines[i + 1:],
        "signed zero pad":
            lambda lines, i: lines[:i] + [lines[i].replace(" ", " -0", 1)] + lines[i + 1:],
        "hash field": lambda lines, i: lines[:i] + [lines[i].replace(" ", " # ", 1)] + lines[i + 1:],
        "non-ASCII digit": lambda lines, i: [line.replace("3", "\u0663") for line in lines],
        "repeated line": lambda lines, i: lines + [lines[i]],
        "reversed line": lambda lines, i: lines + [line(*lines[i].split()[:0:-1])],
        "vertex 0": lambda lines, i: lines + [line("0", "1")],
        "vertex beyond n": lambda lines, i: lines + [line("1", f"{lines[0].split()[2]}1")],
        "eight digits": lambda lines, i: lines + [line("12345678", "1")],
        "lines swapped": lambda lines, i: lines[:1] + lines[:0:-1],
        "line dropped": lambda lines, i: lines[:i] + lines[i + 1:],
        "count + 1": lambda lines, i: [_bump(lines[0], 2, 1)] + lines[1:],
        "count - 1": lambda lines, i: [_bump(lines[0], 2, -1)] + lines[1:],
        "last count + 1": lambda lines, i: [_bump(lines[0], 3, 1)] + lines[1:],
        "count above cap": lambda lines, i: [_bump(lines[0], 2, 1 << 22)] + lines[1:],
    }


def _bump(header, field, by):
    fields = header.split()
    fields[field] = str(int(fields[field]) + by)
    return " ".join(fields)


def _per_line(parse):
    """parse with the canonical lane declined, so every text is read line
    by line."""

    def reference(text):
        with mock.patch("sgdom.graph._canonical_rows", return_value=None):
            return parse(text)

    return reference


@pytest.mark.parametrize("fmt", ["graph", "certificate", "cnf"])
@settings(max_examples=150)
@given(g=_graphs(), f=_sign_functions, data=st.data())
def test_perturbed_text_matches_per_line_path(fmt, g, f, data):
    """A perturbed canonical text gives the per-line path's result, or its
    error with the same message and line, as str and as bytes."""
    if fmt == "graph":
        parse, text, tag = parse_graph, emit_graph(g), "e"
    elif fmt == "certificate":
        text = emit_certificate(f, data.draw(st.integers(1, 3)), Mode.CLOSED)
        parse, tag = parse_certificate, "v"
    else:
        parse, text, tag = parse_cnf, loop_cnf_text(data.draw(_formulas())), None
    reference = _per_line(parse)
    lines = text.splitlines()
    edit = data.draw(st.sampled_from(sorted(_perturbations(tag))))
    lines = _perturbations(tag)[edit](lines, data.draw(st.integers(0, len(lines) - 1)))
    # One text in five also loses its final newline.
    text = "\n".join(lines) + "\n" * (data.draw(st.integers(0, 4)) != 2)
    for raw in (text, text.encode("utf-8")):
        try:
            want = reference(raw)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                parse(raw)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
        else:
            assert _contents(parse(raw)) == _contents(want)


class TestEmit:
    def test_path(self):
        assert emit_graph(path(3)) == "p sgd 3 2\ne 1 2\ne 2 3\n"

    def test_triangle(self):
        assert emit_graph(complete(3)) == "p sgd 3 3\ne 1 2\ne 1 3\ne 2 3\n"

    def test_empty_graph(self):
        assert emit_graph(Graph(0)) == "p sgd 0 0\n"

    def test_round_trip(self):
        g = complete_bipartite(3, 4)
        assert parse_graph(emit_graph(g)) == g

    @given(
        n=st.integers(0, 9),
        picks=st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8))),
    )
    @settings(max_examples=60)
    def test_round_trip_random(self, n, picks):
        edges = {(min(u, v), max(u, v)) for u, v in picks if u != v and u < n and v < n}
        g = Graph(n, sorted(edges))
        assert parse_graph(emit_graph(g)) == g


class TestGraph:
    def test_neighborhoods(self):
        g = path(3)
        assert repr(g) == "Graph(n=3, m=2)"
        assert g.neighbors(1) == (0, 2)
        assert g.closed_neighbors(1) == (0, 1, 2)
        lone = Graph(1)
        assert lone.neighbors(0) == ()
        assert lone.closed_neighbors(0) == (0,)

    def test_degree_sum_is_twice_edge_count(self):
        for g in [complete(5), cycle(6), complete_bipartite(2, 3)]:
            assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            path(3).neighbors(3)

    def test_constructor_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_equal_edges_in_any_order_or_orientation(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        h = Graph(5, [(4, 0), (3, 2), (0, 1), (2, 1)])
        assert g == h and hash(g) == hash(h)
        assert Graph(0) == Graph(0, []) and hash(Graph(0)) == hash(Graph(0, []))

    def test_unequal_with_one_more_vertex_or_edge(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g != Graph(5, [(0, 1), (1, 2)])
        assert g != Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert Graph(4, [(0, 1), (2, 3)]) != Graph(4, [(0, 2), (1, 3)])  # same degrees
        assert Graph(1) != Graph(2)
        assert g != "not a graph"

    def test_has_edge_returns_bool(self):
        g = path(3)
        for u in range(3):
            for v in range(3):
                result = g.has_edge(u, v)
                assert type(result) is bool
                assert result == (abs(u - v) == 1)
        assert Graph(2).has_edge(0, 1) is False


class TestBuilders:
    def test_complete(self):
        g = complete(4)
        assert g.n == 4 and g.m == 6
        assert g.min_degree == g.max_degree == 3

    def test_complete_bipartite_block(self):
        g = complete_bipartite(2, 1)
        assert g.n == 3 and g.m == 2
        assert g.degree(2) == 2

    def test_cycle_requires_three_vertices(self):
        with pytest.raises(ValueError):
            cycle(2)


class TestOneFactorization:
    def test_two_vertices(self):
        factors = one_factorization(2)
        assert factors == [Matching(frozenset({(0, 1)}))]

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_partitions_complete_graph(self, n):
        factors = one_factorization(n)
        assert len(factors) == n - 1
        seen = set()
        for factor in factors:
            assert factor.is_perfect_on(range(n))
            assert not (factor.pairs & seen)
            seen |= factor.pairs
        assert len(seen) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [0, 3, 7, -2])
    def test_rejects_odd_or_empty(self, n):
        with pytest.raises(ValueError):
            one_factorization(n)

    def test_deterministic(self):
        assert one_factorization(8) == one_factorization(8)

    def test_rounds_are_the_textbook_circle_method(self):
        for n in range(2, 41, 2):
            factors = one_factorization(n)
            assert [factor.pairs for factor in factors] == [
                circle_round(n, r) for r in range(n - 1)
            ]


class TestMatching:
    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(0, 1), (1, 2)}))

    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError):
            Matching(frozenset({(2, 1)}))
