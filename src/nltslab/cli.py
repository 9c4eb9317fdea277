"""Reproducible experiment runner.

Every subcommand writes its data files plus a ``manifest.json`` listing each
file with a content hash and, under ``work``, per seed the filter
``enumerate`` ran with its assignments, table bytes and member count, the
histogram kernel ``ogp`` ran with its priced work, the kernels ``cluster``
chose with their pair counts, or the qubits, dense amplitudes, active
variables, ``energy`` vector passes and support of the state ``hamiltonian``
and ``pspin --quantize`` build; identical configs and seeds give
byte-identical data files.  The manifest also records ``wall_time_s`` and
``peak_rss_mb``, the process's peak resident memory in MiB from
``ru_maxrss`` (null where the ``resource`` module is missing); manifests of
identical runs may differ only in those two fields.

Each subcommand takes ``--config``, ``--out`` and only the flags it reads:
all but theory-scan and depth-bound take the seed flags (``--instances``
below 1 and an empty ``--seeds`` are refused), and the three that
enumerate (enumerate, ogp, cluster) take ``--r``, ``--eps`` (the eps-robust
set in place of the set at ``--r``) and ``--workers``, which is refused below
1; ``pspin --gamma`` is refused without ``--quantize``, which alone uses 0.5.
The stream of instance ``i`` under the 64-bit master seed is the first 8
bytes of blake2b("<master>:<i>").

``--config`` names an INI file whose section for the subcommand acts as flags
placed before argv's own, so argv wins and argparse parses everything once;
a key that names no flag of the subcommand is ignored.

Exit codes: 0 success, 2 validation, 3 resource-cap breach, 4 internal
assertion.  Each error prints one JSON record on stderr with ``error`` and
``message``; a resource record adds ``budget``, ``requested`` and ``allowed``
(``requested`` is null for a draw that ran out of tries, and all three are
null when an enumeration worker process dies).  ``--out`` is made at the
first file written, and each file into a ``.staging-*`` directory inside it.
Only a run that exits 0 moves its files into ``--out``, the manifest last; one
that exits nonzero removes its stage, and ``--out`` if it made it and left it
empty.  A run killed from outside leaves its files in the stage, so data files
only ever sit next to the manifest that hashes them.
The eight budgets are ``errors.BUDGETS``, where ``enum_cap`` prices both 2^n
cube scans (enumeration and the pspin scan); NLTSLAB_ENUM_CAP,
NLTSLAB_QUBIT_CAP and NLTSLAB_PAIR_CAP override theirs, read where the budget
is checked.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import shutil
import sys
import tempfile
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import __version__, hamiltonian, ksat, landscape, pspin, theory
from .errors import ContractError, ParameterError, ResourceLimitError

try:
    import resource
except ImportError:  # Windows has no getrusage
    resource = None

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_ASSERTION = 4
#: Bytes read at a time when hashing an output file into the manifest.
_HASH_CHUNK = 1 << 18


def _peak_rss_mb() -> float | None:
    """This process's peak resident memory in MiB; ru_maxrss counts KiB on Linux, bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def stream_seed(master: int, index: int) -> int:
    digest = hashlib.blake2b(f"{master}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class _Run:
    """Owns the output files: stages them inside ``--out``, then hashes them into the manifest and publishes them."""

    def __init__(self, outdir: Path, subcommand: str, config: dict):
        self.outdir = outdir
        self.subcommand = subcommand
        self.config = config
        self.t0 = time.monotonic()
        self.stage: Path | None = None  # made inside --out at the first file; every file is written there
        self.made_outdir = not outdir.exists()
        self.work: dict[int, dict] = {}  # per seed: kernels chosen and their work counts

    def path(self, name: str) -> Path:
        """Where to write ``name``: this run's stage, so it and any sidecar its writer adds reach the manifest."""
        if self.stage is None:
            self.outdir.mkdir(parents=True, exist_ok=True)
            self.stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.outdir))
        return self.stage / name

    def write_json(self, name: str, obj) -> None:
        self.path(name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def write_csv(self, name: str, head: list, columns: list[str], rows) -> None:
        """A CSV of a head row (format tag and size), a column row, then rows."""
        with open(self.path(name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(head)
            w.writerow(columns)
            w.writerows(rows)

    def write_table(self, name: str, tag: str, fields: list[str], rows: list[dict]) -> None:
        """A ``# nltslab <tag> v1`` line, then a header row of ``fields`` and one row per dict."""
        with open(self.path(name), "w", newline="") as fh:
            fh.write(f"# nltslab {tag} v1\n")
            w = csv.DictWriter(fh, fieldnames=fields)
            w.writeheader()
            w.writerows(rows)

    def finish(self) -> None:
        files = {}
        for path in self.stage.iterdir():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                while chunk := fh.read(_HASH_CHUNK):  # so no file is held in memory whole
                    digest.update(chunk)
            files[path.name] = digest.hexdigest()
        manifest = {
            "subcommand": self.subcommand,
            "config": self.config,
            "files": files,
            "version": __version__,
            "work": self.work,
            "wall_time_s": time.monotonic() - self.t0,
            "peak_rss_mb": _peak_rss_mb(),
        }
        self.write_json("manifest.json", manifest)  # after the hashes, so it lists no hash of itself
        for name in [*files, "manifest.json"]:  # publish: one rename each, the manifest last
            (self.stage / name).replace(self.outdir / name)
        self.stage.rmdir()

    def discard(self) -> None:
        """On failure: remove this run's stage, and ``--out`` if this run made it and it is now empty."""
        if self.stage:
            shutil.rmtree(self.stage)
        if self.made_outdir and self.outdir.is_dir() and not any(self.outdir.iterdir()):
            self.outdir.rmdir()


def _int_list(flag: str, raw: str) -> list[int]:
    """Comma-separated integers."""
    values = []
    for token in raw.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise ParameterError(f"{flag} expects comma-separated integers, got {token!r} in {raw!r}") from None
    return values


def _seed_list(args) -> list[int]:
    if args.instances < 1:
        raise ParameterError(f"--instances must be at least 1, got {args.instances}")
    if args.seeds is not None:
        seeds = _int_list("--seeds", args.seeds)
        if min(seeds) < 0:
            raise ParameterError(f"--seeds entries must be at least 0, got {min(seeds)} in {args.seeds!r}")
        return seeds
    return [stream_seed(args.master_seed, i) for i in range(args.instances)]


def _resolve_m(args) -> int:
    if args.m is not None:
        return args.m
    if args.alpha is not None:
        return ksat.clause_count(args.alpha, args.K, args.n)
    raise ParameterError("specify either --m or --alpha")


def _formulas(args):
    for seed in _seed_list(args):
        yield seed, ksat.generate_formula(args.n, _resolve_m(args), args.K, seed)


def _enumerated(args):
    """(seed, formula, set) per seed: ``enumerate_sat`` at ``--r``, or ``enumerate_sat_eps`` given ``--eps``."""
    if args.workers < 1:
        raise ParameterError(f"--workers must be at least 1, got {args.workers}")
    for seed, f in _formulas(args):
        if args.eps is None:
            yield seed, f, landscape.enumerate_sat(f, args.r, workers=args.workers)
        else:
            yield seed, f, landscape.enumerate_sat_eps(f, args.eps, args.r, workers=args.workers)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args, run: _Run):
    for seed, f in _formulas(args):
        ksat.save_formula(f, run.path(f"formula_{seed}.cnf"), alpha=args.alpha if args.m is None else None)


def cmd_enumerate(args, run: _Run):
    for seed, f, A in _enumerated(args):
        run.work[seed] = A.work
        landscape.members_to_csv(A, run.path(f"members_{seed}.csv"))
        run.write_json(
            f"summary_{seed}.json",
            {
                "seed": seed, "n": f.n, "m": f.m, "K": f.K, "r": args.r,
                "eps": args.eps, "count": len(A),
                "log_count_per_n": math.log(len(A)) / f.n if len(A) else None,
                "duplicates": ksat.repeated_variable_stats(f),
            },
        )


def cmd_ogp(args, run: _Run):
    landscape.check_nu(args.nu1, args.nu2)
    for seed, _, A in _enumerated(args):
        holds, witness = landscape.detect_ogp(A, args.nu1, args.nu2)
        hist = landscape.overlap_histogram(A)
        run.work[seed] = hist.work
        landscape.histogram_to_csv(hist, run.path(f"histogram_{seed}.csv"))
        run.write_json(
            f"ogp_{seed}.json",
            {"seed": seed, "count": len(A), "nu1": args.nu1, "nu2": args.nu2,
             "holds": holds, "witness": list(witness) if witness else None},
        )


def cmd_cluster(args, run: _Run):
    landscape.check_nu(args.nu1, args.nu2, clustering=True)
    for seed, _, A in _enumerated(args):
        P = landscape.cluster(A, args.nu1, args.nu2)
        run.work[seed] = P.work
        run.write_csv(f"clusters_{seed}.csv", ["# nltslab clusters v1", f"n={A.n}"], ["packed", "cluster"],
                      ([int(z), ell] for ell, members in enumerate(P.clusters) for z in members))
        run.write_json(f"cluster_summary_{seed}.json",
                       {"seed": seed, **landscape.cluster_stats(P)})


def _quantum_work(psi: hamiltonian.StateVector) -> dict:
    """Size of the dense state and the work ``energy`` does on it."""
    layout = psi.layout
    active = len(layout.active_variables)
    return {"qubits": layout.num_qubits, "amplitudes": layout.dim, "active_variables": active,
            "energy_vector_passes": hamiltonian.ENERGY_PASSES_PER_VARIABLE * active,
            "support": int(np.count_nonzero(psi.amp))}


def _write_measurement(run: _Run, seed: int, psi: hamiltonian.StateVector) -> int:
    """Write ``measurement_<seed>.csv``, rows sorted by bit string; returns the support size."""
    nq = psi.layout.num_qubits
    z, probs = hamiltonian.measurement_support(psi)
    rows = hamiltonian.measurement_rows(z, probs, nq)
    run.write_csv(f"measurement_{seed}.csv", ["# nltslab measurement v1", f"qubits={nq}"],
                  ["bits", "probability"], ([bits, repr(p)] for bits, p in rows))
    return int(z.size)


def cmd_hamiltonian(args, run: _Run):
    hamiltonian.check_gamma(args.gamma, sign=-1)  # energy's inverse, before the first file is written
    for seed, f in _formulas(args):
        layout = hamiltonian.build_layout(f)
        psi = hamiltonian.ground_state(layout, args.gamma)
        run.work[seed] = _quantum_work(psi)
        support = _write_measurement(run, seed, psi)
        if args.dump_state:
            hamiltonian.save_state(psi, run.path(f"state_{seed}.bin"), gamma=args.gamma)
        run.write_json(
            f"hamiltonian_{seed}.json",
            {"seed": seed, "qubits": layout.num_qubits, "gamma": args.gamma,
             "energy": hamiltonian.energy(psi, args.gamma),
             "support": support},
        )


def cmd_pspin(args, run: _Run):
    if args.gamma is not None and not args.quantize:
        raise ParameterError("pspin --gamma is read only with --quantize")
    gamma = 0.5 if args.gamma is None else args.gamma
    hamiltonian.check_gamma(gamma, sign=-1)  # energy's inverse, before the first file is written
    for seed in _seed_list(args):
        g = pspin.generate_regular_hypergraph(args.n, args.d, args.p, seed)
        J = pspin.generate_couplings(g, stream_seed(seed, 1))
        # both caps and a negative slack are checked before the cube scans and before any file is written
        layout = pspin.quantize(g, J) if args.quantize else None
        A = None if args.slack is None else pspin.near_ground_set(g, J, args.slack)
        sigma, emin = pspin.ground_state_bruteforce(g, J)
        pspin.save_hypergraph(g, run.path(f"hypergraph_{seed}.json"))
        record = {
            "seed": seed, "n": g.n, "d": g.d, "p": g.p, "m": g.m,
            "couplings": list(J.values),
            "ground_energy": emin,
            "ground_energy_per_spin": emin / g.n,
            "ground_state": [int(s) for s in sigma],
        }
        if A is not None:
            landscape.members_to_csv(A, run.path(f"near_ground_{seed}.csv"))
            record["near_ground_count"] = len(A)
        if layout is not None:
            psi = hamiltonian.ground_state(layout, gamma)
            run.work[seed] = _quantum_work(psi)
            record["quantized_qubits"] = layout.num_qubits
            record["quantized_energy"] = hamiltonian.energy(psi, gamma)
        run.write_json(f"pspin_{seed}.json", record)


_SCAN_FIELDS = ["K", "window_found", "nu1", "nu2", "delta", "gamma", "lambda", "eta", "eps",
                "c1", "c2", "c1_bits", "c2_bits", "delta_ok", "gamma_lambda_ok",
                "amplification_ok", "tail_ok", "locality_ok", "azuma_ok", "feasible"]


def _scan_csv_row(K, window, eps, p, report) -> dict:
    """One scan.csv row; a K without a window fills only its first two columns."""
    if window is None:
        return {"K": K, "window_found": False}
    return {"K": K, "window_found": True, "nu1": p.nu1, "nu2": p.nu2, "delta": p.delta,
            "gamma": p.gamma, "lambda": p.lam, "eta": p.eta, "eps": eps, **vars(report),  # c1, c2 and five flags
            "c1_bits": report.c1 / theory.LN2, "c2_bits": report.c2 / theory.LN2,
            "azuma_ok": eps is not None, "feasible": report.all_ok and eps is not None}


def cmd_theory_scan(args, run: _Run):
    K_values = _int_list("--K-list", args.K_list)
    rows = [_scan_csv_row(*row) for row in theory.scan_rows(args.alpha, K_values, args.nu_step, args.s_step)]
    run.write_table("scan.csv", "theory-scan", _SCAN_FIELDS, rows)
    feasible = [r for r in rows if r.get("feasible")]
    run.write_json("scan_summary.json", {
        "alpha": args.alpha, "K_values": K_values, "feasible_count": len(feasible),
        "feasible_K": sorted({r["K"] for r in feasible}),
        "windows": {str(r["K"]): [r["nu1"], r["nu2"]] for r in rows if r.get("window_found")},
    })


def cmd_depth_bound(args, run: _Run):
    base = theory.depth_lower_bound(args.d, args.n_bits, args.mu, outer_base2=not args.natural_log)
    rows = []
    for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        dd = args.d * scale
        val = theory.depth_lower_bound(dd, args.n_bits, args.mu, outer_base2=not args.natural_log)
        rows.append({"d": dd, "n_bits": args.n_bits, "mu": args.mu, "depth_bound": val,
                     "vacuous": val <= 0.0})
    run.write_table("depth_bound.csv", "depth-bound", ["d", "n_bits", "mu", "depth_bound", "vacuous"], rows)
    run.write_json("depth_bound.json",
                   {"d": args.d, "n_bits": args.n_bits, "mu": args.mu,
                    "outer_base2": not args.natural_log,
                    "depth_bound": base if math.isfinite(base) else None})  # -inf at d = 0


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def _subcommand(sub, name: str, help: str, func, seeded: bool = True) -> argparse.ArgumentParser:
    """A subcommand's parser with --config and --out, and the seed flags if it draws randomness."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="INI config file; flags override its values")
    p.add_argument("--out", default="out", help="output directory")
    if seeded:
        p.add_argument("--master-seed", type=int, default=1, help="64-bit master seed")
        p.add_argument("--seeds", help="comma-separated explicit seed list (overrides master seed)")
        p.add_argument("--instances", type=int, default=1, help="instances derived from the master seed")
    p.set_defaults(func=func)
    return p


def _add_formula_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--alpha", type=float)


def _add_enumeration_args(p: argparse.ArgumentParser):
    _add_formula_args(p)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--eps", type=float, help="enumerate the eps-robust set A_{eps,r}")
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nltslab")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _subcommand(sub, "gen", "generate random formulas (DIMACS + sidecar)", cmd_gen)
    _add_formula_args(p)

    p = _subcommand(sub, "enumerate", "exhaustively enumerate near-satisfying assignments", cmd_enumerate)
    _add_enumeration_args(p)

    p = _subcommand(sub, "ogp", "overlap histogram and gap detection", cmd_ogp)
    _add_enumeration_args(p)
    p.add_argument("--nu1", type=float, required=True)
    p.add_argument("--nu2", type=float, required=True)

    p = _subcommand(sub, "cluster", "unique (nu1, nu2)-clustering with certificates", cmd_cluster)
    _add_enumeration_args(p)
    p.add_argument("--nu1", type=float, required=True)
    p.add_argument("--nu2", type=float, required=True)

    p = _subcommand(sub, "hamiltonian", "ground state and measurement distribution", cmd_hamiltonian)
    _add_formula_args(p)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--dump-state", action="store_true")

    p = _subcommand(sub, "pspin", "p-spin model on a random regular hypergraph", cmd_pspin)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--slack", type=int)
    p.add_argument("--quantize", action="store_true")
    p.add_argument("--gamma", type=float, help="Q(gamma) of the quantized state (needs --quantize; default 0.5)")

    p = _subcommand(sub, "theory-scan", "parameter feasibility scan", cmd_theory_scan, seeded=False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--K-list", default="4,8,16,32,64")
    p.add_argument("--nu-step", type=float, default=theory.NU_STEP)
    p.add_argument("--s-step", type=float, default=theory.S_STEP)

    p = _subcommand(sub, "depth-bound", "circuit depth lower bound", cmd_depth_bound, seeded=False)
    p.add_argument("--d", type=float, required=True, help="separation distance in bits")
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--natural-log", action="store_true", help="use a natural outer log")

    return parser


def _config_value(section: str, key: str, raw: str, action: argparse.Action):
    """An INI value parsed as its flag would be; store_true flags take INI booleans."""
    boolean = isinstance(action, argparse._StoreTrueAction)
    try:
        if boolean:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return (action.type or str)(raw)
    except (KeyError, ValueError):
        kind = "a boolean" if boolean else f"of type {action.type.__name__}"
        raise ParameterError(f"config [{section}] {key} = {raw!r} is not {kind}") from None


def _config_flags(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """The ``--config`` file's section for argv's subcommand, as flags to place before argv's own.

    argparse keeps a flag's last value, so argv wins under any spelling; a
    store_true key adds its flag when true and nothing when false.
    """
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)  # knows only --config
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # a --config with no value, which the main parse reports
        return []
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    if not path or argv[0] not in subcommands:
        return []
    section = argv[0]
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ParameterError(f"config file not found: {path}")
        items = cp.items(section) if cp.has_section(section) else []
    except configparser.Error as exc:  # no section header, a stray '%', ...
        raise ParameterError(f"config file {path}: {exc}") from None
    # configparser lowercases keys, so "K-list" arrives as "k-list"
    actions = {a.dest.lower(): a for a in subcommands[section]._actions
               if not isinstance(a, argparse._HelpAction)}
    flags = []
    for key, raw in items:
        action = actions.get(key.replace("-", "_"))
        if action is None:
            continue
        value = _config_value(section, key, raw, action)
        if not isinstance(action, argparse._StoreTrueAction):
            flags.append(f"{action.option_strings[0]}={raw}")
        elif value:
            flags.append(action.option_strings[0])
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv[:1] + _config_flags(argv, parser) + argv[1:])
        config_echo = {k: v for k, v in vars(args).items() if k not in ("func",)}
        run = _Run(Path(args.out), args.subcommand, config_echo)
        try:
            args.func(args, run)
            run.finish()
        except BaseException:
            run.discard()
            raise
        return EXIT_OK
    except ParameterError as exc:
        _emit_error("validation", exc)
        return EXIT_VALIDATION
    except ResourceLimitError as exc:
        _emit_error("resource", exc, budget=exc.budget_name, requested=exc.requested, allowed=exc.allowed)
        return EXIT_RESOURCE
    except BrokenExecutor as exc:  # BrokenProcessPool: an enumeration worker died
        _emit_error("resource", f"a worker process died: {exc}", budget=None, requested=None, allowed=None)
        return EXIT_RESOURCE
    except (ContractError, AssertionError) as exc:
        _emit_error("assertion", exc)
        return EXIT_ASSERTION


def _emit_error(kind: str, message: Exception | str, **extra) -> None:
    record = {"error": kind, "message": str(message), **extra}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
