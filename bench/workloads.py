"""
Seeded inputs and single operations of the benchmark workloads.

One op is one seeded transcript: the honest-party round (`simulate`), then
the attack on its public half (`attack`), then an untimed check of the
claim against the seeded secret with handle reduction, an oracle that does
not use the Garside normal form (`check`).

Every library call goes through a module attribute looked up at call time,
so the span recorders in spans.py see it; run.py pauses them while `check`
runs, so the oracle's calls never appear in the spans.

Inputs depend only on the workload seed and on this file, never on the
library, so every version of braidwork is measured on the same instances.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from braidwork import attacks, extractors, protocols, solvers, subgroups, words
from braidwork.handle import ReductionBudgetExceeded, is_trivial_handle_reduction


@dataclasses.dataclass
class Outcome:
    """Untimed verdict on one attack."""

    success: bool  # claimed, and the oracle finds the seeded secret or key
    failed: bool  # claimed, but the oracle rejects the claim
    candidates: int  # candidates tested, over all solver calls of the attack
    first_candidate: bool  # a solver call was solved by its first candidate
    label: str = ""  # preset, for per-preset rates
    off_plan: bool = False  # the transcript is not the instance the input names


def _oracle_trivial(w: words.BraidWord) -> bool:
    try:
        return is_trivial_handle_reduction(w)
    except ReductionBudgetExceeded:
        return False


def _outcome(claimed: bool, claim_ok: bool, exact: bool, reports, **extra) -> Outcome:
    """`claimed`: the attack's own public checks all passed."""
    return Outcome(
        claimed and claim_ok and exact,
        claimed and not claim_ok,
        sum(r.candidates_tested for r in reports),
        any(r.solved and r.candidates_tested == 1 for r in reports),
        **extra,
    )


def digest(inputs: list) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# auth: shifted-conjugacy authentication; the search-heavy workload.

AUTH_N = 4
AUTH_SECRET_LEN = 3
# As in acceptance criterion 8: long enough that the public key pins the
# secret, so exact recovery is well posed.
AUTH_BASE_LEN = 4
AUTH_BLOCKS = 16  # more than a run reaches, so no instance repeats


def auth_inputs(seed: int) -> list:
    """(key seed, nonce letters) per instance, in blocks: each block holds
    every one of the 6^3 nonce sequences random_word can draw, in a seeded
    order, and every instance has its own seeded key pair. The nonce's place
    in the solver's search order sets most of an attack's cost, so whole
    blocks give every run the same mix of cheap and expensive searches."""
    rng = random.Random(f"auth:{seed}")
    letters = [x for i in range(1, AUTH_N) for x in (i, -i)]
    nonces = [(a, b, c) for a in letters for b in letters for c in letters]
    instances = []
    for _ in range(AUTH_BLOCKS):
        rng.shuffle(nonces)
        instances.extend((rng.getrandbits(32), nonce) for nonce in nonces)
    return instances


def auth_simulate(inp):
    key_seed, nonce_letters = inp
    keys = protocols.dehornoy_keygen(
        strands=AUTH_N,
        secret_length=AUTH_SECRET_LEN,
        base_length=AUTH_BASE_LEN,
        seed=key_seed,
    )
    nonce = words.BraidWord(AUTH_N, nonce_letters)
    commitment = protocols.dehornoy_commit(keys, nonce)
    response = protocols.dehornoy_respond(keys, nonce, challenge=1)
    if not protocols.dehornoy_verify(keys.base, keys.public_key, commitment, 1, response):
        raise RuntimeError("the honest authentication round was rejected")
    return keys, commitment, response


def auth_attack(inp, state):
    keys, (x, x_prime), response = state
    config = solvers.SolverConfig(
        max_length=AUTH_SECRET_LEN,
        alphabet=subgroups.interval_generators(AUTH_N, 1, AUTH_N - 1),
        budget=500_000,
    )
    return attacks.attack_dehornoy_pair(
        x, x_prime, keys.base, keys.public_key, response, config
    )


def auth_check(inp, state, report) -> Outcome:
    """The claim is that s_cand * p = p'. At these sizes another secret than
    the seeded one sometimes satisfies it: that break is sound but not exact,
    so it is neither a success nor a failure."""
    keys = state[0]
    claim_ok = exact = False
    if report.success:
        s_cand = report.recovered_dict()["s-candidate"]
        claim_ok = _oracle_trivial(
            words.compose(words.shifted_conjugate(s_cand, keys.base), words.invert(keys.public_key))
        )
        exact = _oracle_trivial(words.compose(s_cand, words.invert(keys.secret)))
    return _outcome(report.success, claim_ok, exact, report.solver_reports)


# ---------------------------------------------------------------------------
# descent: length-based attack on klchkp; no enumeration.

DESCENT_N = 9
DESCENT_SECRET_LEN = 4


def descent_inputs(seed: int) -> list:
    """(protocol seed, attacked secret a1) per instance.

    The public parameters are fixed as in acceptance criterion 5 (klchkp,
    preset seed 0, positive secrets), so the attacked secret a1 is one of
    the 3^4 positive words over sigma_1..sigma_3, and it alone sets the
    attack's cost. The instances are all of them, in a seeded order, so a run
    measures the secret space rather than a lucky or unlucky draw from it.
    The protocol seed for an a1 is found by replaying ka_run's first draw;
    `descent_check` flags a transcript that carries another a1."""
    rng = random.Random(f"descent:{seed}")
    seeds: dict[tuple[int, ...], int] = {}
    gens = (DESCENT_N + 1) // 2 - 2  # the preset's lower interval sigma_1..
    while len(seeds) < gens**DESCENT_SECRET_LEN:
        s = rng.getrandbits(32)
        draw = random.Random(s)
        seeds.setdefault(tuple(1 + draw.randrange(gens) for _ in range(DESCENT_SECRET_LEN)), s)
    order = sorted(seeds)
    rng.shuffle(order)
    return [(seeds[a1], a1) for a1 in order]


def descent_simulate(inp):
    config = dataclasses.replace(
        protocols.make_preset("klchkp", strands=DESCENT_N, secret_length=DESCENT_SECRET_LEN),
        positive_only=True,
    )
    return protocols.ka_run(config, seed=inp[0])


def descent_attack(inp, run):
    instance = extractors.build_mscsp_dhdp(run.public, "a")
    report = solvers.solve_length_descent(
        instance,
        solvers.SolverConfig(
            max_length=DESCENT_SECRET_LEN,
            restarts=6,
            seed=inp[0],
            length_functional="difference",
        ),
    )
    return instance, report


def descent_check(inp, run, result) -> Outcome:
    instance, report = result
    claimed = report.solved and all(report.per_pair)
    claim_ok = False
    if claimed:
        g, g_inv = report.solution, words.invert(report.solution)
        claim_ok = all(
            _oracle_trivial(words.compose_all([g, x, g_inv, words.invert(y)]))
            for x, y in instance.pairs
        )
    return _outcome(claimed, claim_ok, True, [report], off_plan=run.secret.a1.letters != inp[1])


# ---------------------------------------------------------------------------
# sweep: the five key-agreement presets, as `braidwork sweep` attacks them.

SWEEP_PRESETS = ("generalized", "klchkp", "cklhc", "shpilrain-central", "stickel")
SWEEP_N = 10
SWEEP_SECRET_LEN = 4
SWEEP_BASE_LEN = 16
SWEEP_INSTANCES = 1000


def sweep_inputs(seed: int) -> list:
    """(preset, seed) per instance, rotating through the presets."""
    rng = random.Random(f"sweep:{seed}")
    return [
        (SWEEP_PRESETS[i % len(SWEEP_PRESETS)], rng.getrandbits(32))
        for i in range(SWEEP_INSTANCES)
    ]


def sweep_simulate(inp):
    preset, seed = inp
    config = protocols.make_preset(
        preset,
        strands=SWEEP_N,
        secret_length=SWEEP_SECRET_LEN,
        seed=seed,
        base_length=SWEEP_BASE_LEN,
    )
    return protocols.ka_run(config, seed=seed)


def sweep_attack(inp, run):
    cfg = run.public.config
    if cfg.preset == "stickel":
        a, b = cfg.stickel_pair
        return attacks.attack_stickel(
            a, b, run.public.token_a, run.public.token_b, cfg.exponent_bound
        )
    return attacks.attack_decomposition(
        run.public, solvers.SolverConfig(max_length=SWEEP_SECRET_LEN, seed=inp[1])
    )


def sweep_check(inp, run, report) -> Outcome:
    claim_ok = False
    if report.success:
        key = report.recovered_dict()["key-candidate"]
        claim_ok = _oracle_trivial(words.compose(key, words.invert(run.secret.kappa)))
    return _outcome(report.success, claim_ok, True, report.solver_reports, label=inp[0])


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    simulate: object
    attack: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", sweep_inputs, sweep_simulate, sweep_attack, sweep_check),
        Workload("descent", descent_inputs, descent_simulate, descent_attack, descent_check),
        Workload("auth", auth_inputs, auth_simulate, auth_attack, auth_check),
    )
}
