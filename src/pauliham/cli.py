"""Command-line surface tying the modules into reproducible experiments.

Subcommands: build, norms, spectrum, amplify, verify-lemma, game, sparsify.
Primary outputs are deterministic JSON or CSV (byte-identical for identical
config and inputs under the same BLAS thread count, since eigensolver
results can differ in their last bits across thread counts); wall-clock
timestamps go only to a ``<out>.log`` sidecar.
Every JSON report embeds the full run configuration under the "config" key.
Outputs are written piece by piece once every check has passed, through
the one file writer ``serialize._write``: a write that fails or is
interrupted removes its file (a regular file that --out or --eigvec-out
names itself), and a spectrum report that fails removes the --eigvec-out
file written before it, so a failing run leaves no output file.  ``game`` writes both of
its formats from one ``shot_chunks`` stream.

Exit codes: 0 ok, 1 usage, 2 input error, 3 capacity error, 4 verification
failure (verify-lemma reporting all_bounds_hold = false), 5 convergence
error (an eigensolve whose result must be converged stopped above its
tolerance: the operator norm in norms, amplify and verify-lemma, the
eigenvalues in verify-lemma, and the top eigenvector that
spectrum --eigvec-out saves and game --state top-eig plays), 130 interrupted
(Ctrl-C), 141 broken pipe (the reader of stdout or of an --out FIFO left).
``main`` raises those two; the process entry points map them to these codes.

The eigensolver's memory budget and the term-count cap honor the
environment variables PAULIHAM_DENSE_LIMIT and PAULIHAM_TERM_CAP.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import closing

import numpy as np

from .amplify import AmplifyParams, amplify, verify_amplification
from .game import _transcript, shot_chunks
from .paulis import (
    CapacityError,
    DimensionMismatchError,
    Hamiltonian,
    PauliParseError,
    build_model,
    format_labels,
    pauli_1_norm,
)
from .serialize import (
    SchemaError,
    _json_document,
    _state_json,
    _terms_json,
    _write,
    load_hamiltonian,
    load_state,
)
from .spectra import (
    DEFAULT_EIG_TOL,
    DEFAULT_MAX_ITERS,
    ConvergenceError,
    extremal_eigs,
    operator_norm,
)
from .sparsify import SparsifyParams, empirical_deviation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4
EXIT_CONVERGENCE = 5

# A JSON game report lists its rounds only up to this many shots.
ROUND_RECORD_LIMIT = 10_000


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; this CLI reserves 2
    # for input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _jsonable(value):
    """Recursively convert to JSON-safe values; non-finite floats become strings."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def _config_of(args: argparse.Namespace) -> dict:
    return _jsonable({k: v for k, v in vars(args).items() if not k.startswith("_")})


def _emit(pieces: Iterable[str], out: "str | None", args: argparse.Namespace) -> None:
    """Write the pieces to stdout, or to ``out`` (by ``serialize._write``) and then
    its ``<out>.log`` sidecar."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    _write(out, pieces)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(f"{out}.log", "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {args.subcommand} {json.dumps(_config_of(args), sort_keys=True)}\n")


def _emit_json(doc: dict, out: "str | None", args: argparse.Namespace, **streamed) -> None:
    """Write ``doc`` and the run's config as one JSON report.  Each keyword
    in ``streamed`` is a list already written as text, in pieces."""
    doc = {**_jsonable(doc), "config": _config_of(args), **streamed}
    _emit(_json_document(doc, streamed), out, args)


def _csv_rows(start: int, rows: list[str]) -> str:
    """CSV lines: the row index from ``start``, then row i's text."""
    pieces = [""] * (2 * len(rows))
    pieces[0::2] = map(str, range(start, start + len(rows)))
    pieces[1::2] = rows
    return "".join(pieces)


def _shot_texts(h: Hamiltonian, signs: np.ndarray, chunks, text) -> Iterator[list[str]]:
    """Each chunk of ``shot_chunks`` as its shots' ``text(label, sign, outcome)``, looked
    up at 2 * term + outcome bit.  A shot is accepted iff its outcome is its term's
    sign, which is never 0: a canonical Hamiltonian holds no zero coefficient.  An
    entry's text is built when a shot first reaches it: at most one per shot."""
    table = np.empty(2 * h.num_terms, dtype=object)
    filled = np.zeros(2 * h.num_terms, dtype=bool)
    for term_idx, plus, _ in chunks:
        at = 2 * term_idx + plus
        new = np.unique(at[~filled[at]])  # the entries no earlier shot reached
        terms, outcomes = new >> 1, (2 * (new & 1) - 1).tolist()
        labels = format_labels(h.x[terms], h.z[terms], h.n)
        table[new] = [text(*row) for row in zip(labels, signs[terms].tolist(), outcomes)]
        filled[new] = True
        yield table[at].tolist()


def _game_csv(h: Hamiltonian, signs: np.ndarray, chunks) -> Iterator[str]:
    """The game's CSV text, one piece per chunk of ``shot_chunks``."""
    yield "round,pauli,coeff_sign,outcome,accepted\n"
    start = 0
    for rows in _shot_texts(h, signs, chunks, lambda p, s, o: f",{p},{s},{o},{int(o == s)}\n"):
        yield _csv_rows(start, rows)
        start += len(rows)


def _round_json(label: str, sign: int, outcome: int) -> str:
    """A round of the JSON report as json.dumps(indent=2) writes it two levels down."""
    accepted = "true" if outcome == sign else "false"
    return (
        f'    {{\n      "accepted": {accepted},\n      "coeff_sign": {sign},\n'
        f'      "outcome": {outcome},\n      "pauli": "{label}"\n    }}'
    )


def _cmd_build(args) -> int:
    ham = build_model(
        args.kind.replace("-", "_"),
        n=args.n,
        ell=args.ell,
        m=args.m,
        seed=args.seed,
    )
    _emit_json({"n": ham.n}, args.out, args, terms=_terms_json(ham))
    return EXIT_OK


def _cmd_norms(args) -> int:
    ham = load_hamiltonian(args.ham)
    _emit_json(
        {
            "n": ham.n,
            "num_terms": ham.num_terms,
            "pauli_1_norm": pauli_1_norm(ham),
            "operator_norm": operator_norm(ham),
        },
        args.out,
        args,
    )
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    ham = load_hamiltonian(args.ham)
    result = extremal_eigs(ham, tol=args.tol, max_iters=args.max_iters)
    report = {
        "lambda_max": result.lambda_max,
        "lambda_min": result.lambda_min,
        "method": result.method,
        "iterations": result.iterations,
        "residual": result.residual,
        "converged": result.converged,
    }
    if args.eigvec_out:
        # a report that fails or is interrupted takes the eigvec file with it
        psi = result.require_converged().eigvec_max
        _write(args.eigvec_out, _state_json(psi), then=lambda: _emit_json(report, args.out, args))
    else:
        _emit_json(report, args.out, args)
    return EXIT_OK


def _cmd_amplify(args) -> int:
    ham = load_hamiltonian(args.ham)
    amplified = amplify(ham, args.k, assume_norm_ok=args.assume_norm_ok)
    _emit_json({"n": amplified.n}, args.out, args, terms=_terms_json(amplified))
    return EXIT_OK


def _cmd_verify_lemma(args) -> int:
    ham = load_hamiltonian(args.ham)
    params = AmplifyParams(k=args.k, p=args.p, q=args.q)
    report = verify_amplification(ham, params, eigen_tol=args.eigen_tol)
    _emit_json(dataclasses.asdict(report), args.out, args)
    return EXIT_OK if report.all_bounds_hold else EXIT_VERIFY


def _resolve_state(state_arg: str, ham):
    if state_arg != "top-eig":
        return load_state(state_arg)
    try:
        return extremal_eigs(ham).require_converged().eigvec_max
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"top-eig: {exc}; pass an explicit state file instead"
        ) from exc


def _cmd_game(args) -> int:
    ham = load_hamiltonian(args.ham)
    psi = _resolve_state(args.state, ham)
    exact, signs, chunks = shot_chunks(ham, psi, args.shots, args.seed)
    with closing(chunks):  # an interrupted write still joins the drawing threads
        if args.format == "csv":
            _emit(_game_csv(ham, signs, chunks), args.out, args)
            return EXIT_OK
        # Up to ROUND_RECORD_LIMIT shots (one chunk) are kept, to be counted and listed.
        kept = list(chunks) if args.shots <= ROUND_RECORD_LIMIT else []
        transcript = _transcript(exact, kept or chunks, args.shots, args.seed)
    texts = _shot_texts(ham, signs, kept, _round_json) if kept else []
    rows = [row for chunk in texts for row in chunk]
    _emit_json(
        {
            "shots": transcript.shots,
            "accept_frequency": transcript.accept_frequency,
            "std_error": transcript.std_error,
            "exact_probability": transcript.exact_probability,
            "seed": transcript.seed,
            "rounds_elided": args.shots > ROUND_RECORD_LIMIT,
        },
        args.out,
        args,
        rounds=["[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"],
    )
    return EXIT_OK


def _cmd_sparsify(args) -> int:
    ham = load_hamiltonian(args.ham)
    params = SparsifyParams(m=args.m, delta=args.delta, seed=args.seed, trials=args.trials)
    report = empirical_deviation(ham, params)
    if args.format == "csv":
        rows = [f",{d!r},{int(d >= params.delta)}\n" for d in report.deviations]
        _emit(["trial,deviation,failed\n", _csv_rows(0, rows)], args.out, args)
        return EXIT_OK
    _emit_json(dataclasses.asdict(report), args.out, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pauliham", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_build = sub.add_parser("build", help="construct a model Hamiltonian file")
    p_build.add_argument(
        "--kind",
        required=True,
        choices=["hadamard-power", "xxzz-chain", "random-local"],
    )
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--ell", type=int, help="locality for random-local")
    p_build.add_argument("--m", type=int, help="term count for random-local")
    p_build.add_argument("--seed", type=int, help="seed for random-local")
    p_build.add_argument("--out", help="output Hamiltonian JSON (default stdout)")
    p_build.set_defaults(_handler=_cmd_build)

    p_norms = sub.add_parser("norms", help="Pauli 1-norm and operator norm")
    p_norms.add_argument("--ham", required=True)
    p_norms.add_argument("--out")
    p_norms.set_defaults(_handler=_cmd_norms)

    p_spec = sub.add_parser("spectrum", help="extremal eigenvalues")
    p_spec.add_argument("--ham", required=True)
    p_spec.add_argument("--tol", type=float, default=DEFAULT_EIG_TOL)
    p_spec.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p_spec.add_argument(
        "--eigvec-out",
        help="also save the top Ritz vector; refused (exit 5) unless the solve converged",
    )
    p_spec.add_argument("--out")
    p_spec.set_defaults(_handler=_cmd_spectrum)

    p_amp = sub.add_parser("amplify", help="shifted tensor-power transform")
    p_amp.add_argument("--ham", required=True)
    p_amp.add_argument("--k", type=int, required=True)
    p_amp.add_argument(
        "--assume-norm-ok",
        action="store_true",
        help="skip the ||H|| <= 1 precondition check",
    )
    p_amp.add_argument("--out", help="output Hamiltonian JSON (default stdout)")
    p_amp.set_defaults(_handler=_cmd_amplify)

    p_ver = sub.add_parser(
        "verify-lemma",
        help="check the amplification eigenvalue and norm bounds on an instance",
    )
    p_ver.add_argument("--ham", required=True)
    p_ver.add_argument("--p", type=float, required=True, help="YES threshold 1 - 1/p; 'inf' allowed")
    p_ver.add_argument("--q", type=float, required=True, help="NO threshold 1 - 1/q")
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--eigen-tol", type=float, default=1e-8)
    p_ver.add_argument("--out")
    p_ver.set_defaults(_handler=_cmd_verify_lemma)

    p_game = sub.add_parser("game", help="run the energy-measurement game")
    p_game.add_argument("--ham", required=True)
    p_game.add_argument("--state", required=True, help="state JSON path, or 'top-eig'")
    p_game.add_argument("--shots", type=int, required=True)
    p_game.add_argument("--seed", type=int, required=True)
    p_game.add_argument("--format", choices=["json", "csv"], default="json")
    p_game.add_argument("--out")
    p_game.set_defaults(_handler=_cmd_game)

    p_sparse = sub.add_parser("sparsify", help="randomized restriction experiment")
    p_sparse.add_argument("--ham", required=True)
    p_sparse.add_argument("--m", type=int, required=True)
    p_sparse.add_argument("--delta", type=float, required=True)
    p_sparse.add_argument("--trials", type=int, default=1)
    p_sparse.add_argument("--seed", type=int, required=True)
    p_sparse.add_argument("--format", choices=["json", "csv"], default="json")
    p_sparse.add_argument("--out")
    p_sparse.set_defaults(_handler=_cmd_sparsify)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args._handler(args)
    except CapacityError as exc:
        print(f"pauliham {args.subcommand}: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConvergenceError as exc:
        print(f"pauliham {args.subcommand}: convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (
        SchemaError,
        PauliParseError,
        DimensionMismatchError,
        FileNotFoundError,
        IsADirectoryError,
        ValueError,
    ) as exc:
        print(f"pauliham {args.subcommand}: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _entry() -> None:
    """Run ``main`` as the process: a broken pipe or Ctrl-C ends it quietly,
    with the exit code a shell reports, where ``main`` itself raises."""
    try:
        code = main()
    except BrokenPipeError:
        # A reader left (of stdout, or of an --out FIFO): what stdout still
        # buffers goes to devnull, so the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    except KeyboardInterrupt:
        code = 130  # 128 + SIGINT
    sys.exit(code)


if __name__ == "__main__":
    _entry()
