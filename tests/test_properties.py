"""Property tests (hypothesis) for the string algebra, the column store, the
writer and the term draw rule."""

import json
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import pauliham.serialize as serialize  # noqa: E402
from pauliham.paulis import (  # noqa: E402
    Hamiltonian,
    _TermDraw,
    PauliString,
    Phase,
    commutes,
    parse_pauli,
    pauli_1_norm,
    pauli_mul,
    tensor,
)
from pauliham.serialize import (  # noqa: E402
    _json_document,
    _terms_json,
    load_hamiltonian,
    save_hamiltonian,
)

PROPERTY = settings(max_examples=60, deadline=None)


def hamiltonian_to_jsonable(h: Hamiltonian) -> dict:
    """The writer's reference: the file document as plain Python values."""
    return {
        "n": h.n,
        "terms": [{"pauli": p, "coeff": c} for p, c in zip(h.labels(), h.coeffs.tolist())],
    }


@st.composite
def pauli_strings(draw, n=None, max_n=130):
    n = draw(st.integers(1, max_n)) if n is None else n
    return PauliString(n, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1)))


@st.composite
def triples(draw):
    n = draw(st.integers(1, 130))
    return tuple(draw(pauli_strings(n=n)) for _ in range(3))


@st.composite
def pairs(draw):
    n = draw(st.integers(1, 130))
    return draw(pauli_strings(n=n)), draw(pauli_strings(n=n))


def labels_of(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


coefficients = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda c: abs(c) > 1e-6)


@st.composite
def hamiltonians(draw, max_n=130, max_terms=12):
    n = draw(st.integers(1, max_n))
    terms = draw(st.dictionaries(labels_of(n), coefficients, min_size=1, max_size=max_terms))
    return Hamiltonian.from_labels(terms)


@PROPERTY
@given(triples())
def test_pauli_mul_associative_with_phase(pqr):
    p, q, r = pqr
    ph1, pq = pauli_mul(p, q)
    ph2, left = pauli_mul(pq, r)
    ph3, qr = pauli_mul(q, r)
    ph4, right = pauli_mul(p, qr)
    assert left == right
    assert ph1 * ph2 == ph3 * ph4


@PROPERTY
@given(pairs())
def test_commutes_matches_product_sign(pq):
    p, q = pq
    phase_pq, r1 = pauli_mul(p, q)
    phase_qp, r2 = pauli_mul(q, p)
    assert r1 == r2
    # PQ = QP, or PQ = -QP: the phases agree or differ by i^2
    assert commutes(p, q) == (phase_pq == phase_qp)
    assert commutes(p, q) or phase_pq == phase_qp * Phase(2)


@PROPERTY
@given(hamiltonians(max_n=70, max_terms=6), hamiltonians(max_n=70, max_terms=6))
def test_tensor_multiplies_pauli_1_norm(a, b):
    assert pauli_1_norm(tensor(a, b)) == pytest.approx(pauli_1_norm(a) * pauli_1_norm(b), rel=1e-12)


@PROPERTY
@given(st.data())
def test_rows_in_label_order(data):
    n = data.draw(st.integers(1, 130))
    labels = data.draw(st.lists(labels_of(n), min_size=1, max_size=20))
    # repeats merge; positive weights never cancel
    h = Hamiltonian.from_pairs(n, [(parse_pauli(s), 0.5) for s in labels])
    assert h.labels() == sorted(set(labels))
    assert [p.label for p in h.terms] == sorted(set(labels))


@PROPERTY
@given(hamiltonians())
def test_json_round_trip(tmp_path_factory, h):
    path = tmp_path_factory.mktemp("rt") / "h.json"
    save_hamiltonian(h, path)
    assert load_hamiltonian(path) == h


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
tricky_text = st.sampled_from(['"terms": [', 'terms', 'a "quoted" word', "back\\slash", "Δ≤é ünïcode", "line\nbreak"])
extra_keys = st.dictionaries(
    st.text(max_size=8).filter(lambda k: k != "terms") | tricky_text.filter(lambda k: k != "terms"),
    json_values | tricky_text,
    max_size=4,
)


@PROPERTY
@given(
    hamiltonians(max_n=20),
    extra_keys,
    st.dictionaries(tricky_text, tricky_text | json_values, max_size=4),
    st.sampled_from([1, 5, serialize.TERM_CHUNK]),
)
def test_writer_matches_json_dumps(h, extra, config, term_chunk):
    extra = dict(extra, config=config)
    doc = dict(hamiltonian_to_jsonable(h), **extra)
    with mock.patch.object(serialize, "TERM_CHUNK", term_chunk):
        text = "".join(_json_document({"n": h.n, "terms": _terms_json(h), **extra}, ("terms",)))
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_writer_zero_hamiltonian():
    h = Hamiltonian.from_columns(3, np.zeros((0, 1)), np.zeros((0, 1)), [])
    text = "".join(_json_document({"n": 3, "terms": _terms_json(h)}, ("terms",)))
    assert text == json.dumps({"n": 3, "terms": []}, indent=2, sort_keys=True) + "\n"


weight_lists = st.one_of(
    # equal weights: with T a power of two every running sum is a bucket edge
    st.integers(1, 300).map(lambda t: [1.0] * t),
    st.lists(st.floats(-300.0, 0.0).map(lambda e: 10.0**e), min_size=1, max_size=300),
    st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=300),
)


@PROPERTY
@given(weight_lists, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
def test_term_draw_matches_search(weights, uniforms):
    weights = np.array(weights)
    probs = weights / weights.sum()
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    buckets = 1 << (len(probs).bit_length() + 3)
    edges = np.arange(buckets) / buckets
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 0.0), edges,
        np.nextafter(edges, 0.0), uniforms,
    ])
    u = u[u < 1.0]
    want = np.minimum(np.searchsorted(cum, u, side="right"), len(probs) - 1)
    for draws in (1, buckets):  # a plain search, then the guide table
        np.testing.assert_array_equal(_TermDraw(probs, draws)(u), want)
