"""Reading and writing graphs in the .hg text format and its JSON twin.

.hg format: first significant line is ``r n``; every following significant
line is one edge given as r strictly increasing vertex labels in 1..n.
Lines starting with ``#`` and blank lines are ignored.  JSON format: an
object ``{"r": ..., "n": ..., "edges": [[...], ...]}``.  A leading ``{``
selects the JSON parser.
"""

from __future__ import annotations

import json
import sys

from .core import Hypergraph
from .errors import HgParseError

__all__ = [
    "parse_hg",
    "parse_json",
    "parse_graph",
    "emit_hg",
    "emit_json",
    "load_graph",
    "parse_weights",
]


def _int_tokens(tokens, lineno):
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise HgParseError(f"expected integer, got {t!r}", lineno) from None
    return out


def parse_hg(text: str) -> Hypergraph:
    header = None
    edges = set()
    r = n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        vals = _int_tokens(line.split(), lineno)
        if header is None:
            if len(vals) != 2:
                raise HgParseError("header must be 'r n'", lineno)
            r, n = vals
            if r < 2:
                raise HgParseError(f"uniformity {r} must be >= 2", lineno)
            if n < 0:
                raise HgParseError(f"vertex count {n} must be >= 0", lineno)
            header = lineno
            continue
        if len(vals) != r:
            raise HgParseError(f"edge has {len(vals)} vertices, expected {r}", lineno)
        if any(vals[i] >= vals[i + 1] for i in range(r - 1)):
            raise HgParseError("edge vertices must be strictly increasing", lineno)
        if vals[0] < 1 or vals[-1] > n:
            raise HgParseError(f"vertex out of range 1..{n}", lineno)
        e = tuple(vals)
        if e in edges:
            raise HgParseError(f"duplicate edge {' '.join(map(str, e))}", lineno)
        edges.add(e)
    if header is None:
        raise HgParseError("empty input: missing 'r n' header")
    return Hypergraph(r, n, frozenset(edges))


def parse_json(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise HgParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise HgParseError("JSON graph must be an object")
    for key in ("r", "n", "edges"):
        if key not in obj:
            raise HgParseError(f"missing field {key!r}")
    r, n = obj["r"], obj["n"]
    if not isinstance(r, int) or not isinstance(n, int):
        raise HgParseError("fields 'r' and 'n' must be integers")
    if r < 2:
        raise HgParseError(f"uniformity {r} must be >= 2")
    edges = set()
    for e in obj["edges"]:
        if not isinstance(e, list) or len(e) != r:
            raise HgParseError(f"edge {e!r} must be a list of {r} vertices")
        if not all(isinstance(v, int) for v in e):
            raise HgParseError(f"edge {e!r} has non-integer vertices")
        t = tuple(sorted(e))
        if len(set(t)) != len(t):
            raise HgParseError(f"edge {e!r} has repeated vertices")
        if t[0] < 1 or t[-1] > n:
            raise HgParseError(f"edge {e!r} out of range 1..{n}")
        if t in edges:
            raise HgParseError(f"duplicate edge {e!r}")
        edges.add(t)
    return Hypergraph(r, n, frozenset(edges))


def parse_graph(text: str) -> Hypergraph:
    """Dispatch on the leading significant character: '{' means JSON."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_hg(text)


def emit_hg(G: Hypergraph) -> str:
    lines = [f"{G.r} {G.n}"]
    lines.extend(" ".join(map(str, e)) for e in G.edge_list())
    return "\n".join(lines) + "\n"


def _graph_obj(G: Hypergraph) -> dict:
    """The JSON object of G, which ``parse_json`` reads back."""
    return {"r": G.r, "n": G.n, "edges": [list(e) for e in G.edge_list()]}


def emit_json(G: Hypergraph) -> str:
    return json.dumps(_graph_obj(G))


def load_graph(path: str) -> Hypergraph:
    """Read a graph from a file path, or standard input when path is '-'."""
    if path == "-":
        return parse_graph(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def parse_weights(text: str, n: int):
    """Parse n whitespace-separated decimals."""
    toks = text.split()
    if len(toks) != n:
        raise HgParseError(f"expected {n} weights, got {len(toks)}")
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise HgParseError(f"bad weight: {exc}") from None
