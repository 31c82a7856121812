"""
End-to-end attack pipelines: decomposition key recovery, exponent-based
key recovery, a one-sided common-factor decision procedure, twisted
conjugacy recovery, shifted-conjugacy authentication attacks, and
partial-factor peeling.

Every pipeline returns AttackReports (`decomposition`, `stickel`, `edl`
per decided subset, `gtcp-<mode>`, `dehornoy-centralizer`, `dehornoy-pair`
and `partial-factor` per probe) and has the same skeleton: extract
conjugacy-search instances from public data, solve them, lift the solution
back to a secret candidate (`_lift` for the token maps), and check the
candidate against the public relations. Solvers return solutions only up
to centralizer factors, so a pipeline's public predicate is the solver's
`extra_check` and is evaluated there alone, on the enumerated secret: only
extractors and solvers know an instance's post_transform. `_solve` keeps
the value the filter derived from the accepted secret, so none is derived
twice. A report names only the checks that can still fail once the solver
has answered. `_Run` collects the checks, recovered values and solver
reports of one run and builds its AttackReport; `_Run.recover` is the
shared tail of the filtered secret searches. A pipeline solves only the
instances whose answers it uses, and what its solver's filter or its own
construction already guarantees is not checked again. So each
key-recovery pipeline runs one search: decomposition derives its right
factor from the left solution and the token, and stickel reads its
b-power off the token's quotient by the a-power. Success is claimed only
when all public checks pass: a failed `edl` check is no evidence, never a
proof, and a `partial-factor` success means an exact peel.

Pipelines take public data only. A caller that holds the secret judges a
report with `AttackReport.with_verdict`; that harness verdict is
informational and never gates success.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable

from .extractors import (
    CspInstance,
    build_conjugation_instance,
    build_dehornoy_centralizer_instance,
    build_difference_instance,
    build_gtcp_instances,
    build_mscsp_dhdp,
    build_stickel_instance,
)
from .garside import embed, inverse, nf_key, normal_form, product, rewrite, words_equal
from .handle import ReductionBudgetExceeded, handle_reduce, shift_preimage
from .protocols import NamedCheck, PublicTranscript
from .solvers import (
    SolutionReport,
    SolverConfig,
    solve_exhaustive,
    solve_length_descent,
)
from .subgroups import SubgroupSpec, centralizer_search, elements_commute
from .words import (
    SHIFT_ENDO,
    BraidWord,
    Endomorphism,
    apply_endo,
    compose,
    compose_all,
    crossings,
    enumerate_products,
    generator,
    invert,
    power,
    shift,
    shifted_conjugate,
)


@dataclasses.dataclass(frozen=True)
class AttackReport:
    """Outcome of one attack pipeline run."""

    attack: str
    recovered: tuple[tuple[str, BraidWord], ...]
    checks: tuple[NamedCheck, ...]
    solver_reports: tuple[SolutionReport, ...]
    harness_verdict: bool | None = None

    @property
    def success(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def recovered_dict(self) -> dict[str, BraidWord]:
        return dict(self.recovered)

    def with_verdict(self, name: str, truth: BraidWord) -> AttackReport:
        """This report judged against a secret the caller holds: the harness
        verdict says whether the value recovered as `name` equals `truth`,
        and stays None when nothing was recovered under that name."""
        # `is None`: the identity word is a valid candidate but falsy.
        candidate = self.recovered_dict().get(name)
        if candidate is None:
            return self
        return dataclasses.replace(self, harness_verdict=words_equal(candidate, truth))

    def to_record(self) -> dict:
        return {
            "attack": self.attack,
            "recovered": {name: w.to_record() for name, w in self.recovered},
            "checks": [{"name": c.name, "pass": c.passed} for c in self.checks],
            "harness_verdict": self.harness_verdict,
            "solver_reports": [r.to_record() for r in self.solver_reports],
        }


class _Run:
    """Checks, recovered values and solver reports of one pipeline run."""

    def __init__(self, attack: str):
        self.attack = attack
        self.checks: list[NamedCheck] = []
        self.recovered: list[tuple[str, BraidWord]] = []
        self.reports: list[SolutionReport] = []

    def solved(self, name: str, report: SolutionReport) -> bool:
        self.reports.append(report)
        return self.check(name, report.solved)

    def check(self, name: str, ok: bool) -> bool:
        self.checks.append(NamedCheck(name, ok))
        return ok

    def report(self) -> AttackReport:
        return AttackReport(
            self.attack, tuple(self.recovered), tuple(self.checks), tuple(self.reports)
        )

    def recover(
        self, rep: SolutionReport, derived: BraidWord | None, name: str
    ) -> AttackReport:
        """Record a filtered search as `instance-solved` and, when it
        solved, the value its filter `derived`, rewritten, as `name`."""
        if self.solved("instance-solved", rep):
            self.recovered.append((name, rewrite(derived)))
        return self.report()


def _solve(
    instance: CspInstance,
    config: SolverConfig,
    derive: Callable[[BraidWord], BraidWord | None],
) -> tuple[SolutionReport, BraidWord | None]:
    """The exhaustive search filtered by `derive`, which maps an enumerated
    secret to the value it pins or to None, and the value of the secret it
    accepted: the search stops there, so that value is the last derived."""
    derived: list[BraidWord | None] = [None]

    def accepts(word: BraidWord) -> bool:
        derived[0] = derive(word)
        return derived[0] is not None

    return solve_exhaustive(instance, config, extra_check=accepts), derived[0]


def _lift(f: Endomorphism, word: BraidWord) -> BraidWord | None:
    """Pull a word back through an invertible token map; None when it is
    not in the map's image or handle reduction runs over budget."""
    if f.kind == "identity":
        return word
    if f.kind == "inner":
        return compose_all([invert(f.conjugator), word, f.conjugator])
    try:
        return shift_preimage(word)
    except (ValueError, ReductionBudgetExceeded):
        return None


def _reproduces(base: BraidWord, target: BraidWord) -> Callable[[BraidWord], bool]:
    """Whether a secret s has s*base = target, compared as words_equal
    compares, on the larger strand count. The target's crossing image
    (`words.crossings`) is computed once, and a side whose image differs
    is turned down before any normal form. A side on more strands than the
    target, as when the search alphabet is wider than the keys, has the
    target's image taken again on that count."""
    image = crossings(target)

    def reproduces(s: BraidWord) -> bool:
        side = shifted_conjugate(s, base)
        n = max(side.strands, target.strands)
        known = image if n == target.strands else crossings(target.embed(n))
        return crossings(side.embed(n)) == known and words_equal(side, target)

    return reproduces


def attack_decomposition(
    transcript: PublicTranscript,
    config: SolverConfig,
    method: str = "exhaustive",
) -> AttackReport:
    """
    Key recovery against a decomposition-style key agreement, from party
    a's token (either party's token gives the key).

    Extracts the left-side conjugacy instance from that token and solves
    it: the enumerated word is the left candidate, and the solution g =
    left.z fixes right = g^-1.token, so the two rebuild the token around z
    (Hofheinz & Steinwandt, PKC 2003). The right candidate and the key
    are products of normal forms with the transcript's token forms, each
    spelt once. Public checks: each candidate commutes with the peer's
    matching subgroup; with the token rebuilt, those conditions alone force
    the assembled key to equal the shared one.
    """
    solve = {"exhaustive": solve_exhaustive, "descent": solve_length_descent}.get(method)
    if solve is None:
        raise ValueError(f"unknown solver method {method!r}")
    cfg = transcript.config
    run = _Run("decomposition")
    rep = solve(build_mscsp_dhdp(transcript, "a"), config)
    if not run.solved("left-instance-solved", rep):
        return run.report()
    left = normal_form(rep.raw_word)
    n = max(left.strands, rep.solution.strands, transcript.form_a.strands)
    right = product(inverse(nf_key(rep.solution, n)), embed(transcript.form_a, n))
    left_cand, right_cand = left.to_word(), right.to_word()
    run.recovered += [("left-candidate", left_cand), ("right-candidate", right_cand)]
    run.check(
        "left-commutes-with-peer-left",
        all(elements_commute(left_cand, g) for g in cfg.left_b.generators),
    )
    run.check(
        "right-commutes-with-peer-right",
        all(elements_commute(right_cand, g) for g in cfg.right_b.generators),
    )
    key = product(product(embed(left, n), embed(transcript.form_b, n)), right)
    run.recovered.append(("key-candidate", key.to_word()))
    return run.report()


def attack_stickel(
    a: BraidWord,
    b: BraidWord,
    token_a: BraidWord,
    token_b: BraidWord,
    exponent_bound: int,
) -> AttackReport:
    """
    Key recovery against the commuting-powers scheme with tokens of the
    form a^r.b^s: recover a^r on a conjugacy pair by the exhaustive search
    over a to length exponent_bound (a ValueError if it is negative), read
    off b^s as the quotient, and assemble the shared key around the peer
    token. The b-power is chosen to equal a^-r.token, so a^r.b^s rebuilds
    the token by construction and is not checked again.
    """
    run = _Run("stickel")
    instance = build_stickel_instance(a, b, token_a, alpha=1)
    rep = solve_exhaustive(instance, SolverConfig(exponent_bound))
    if not run.solved("a-power-found", rep):
        return run.report()
    a_pow = rep.solution
    run.recovered.append(("a-power-candidate", a_pow))

    # token = a^r.b^s, so the left quotient by the a-power is a b-power.
    quotient = compose(invert(a_pow), token_a)
    b_pow: BraidWord | None = None
    for e in range(-exponent_bound, exponent_bound + 1):
        if words_equal(quotient, power(b, e)):
            b_pow = power(b, e)
            break
    if not run.check("b-power-found", b_pow is not None):
        return run.report()

    key_cand = rewrite(compose_all([a_pow, token_b, b_pow]))
    run.recovered += [("b-power-candidate", b_pow), ("key-candidate", key_cand)]
    return run.report()


def decide_edl(
    tokens: tuple[tuple[BraidWord, BraidWord], ...],
    config: SolverConfig,
    subsets: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[AttackReport, ...]:
    """
    Decide, one-sidedly, whether tokens y_i = u.x_i.v share a factor pair
    (u, v), one `edl` report per subset. Differences of two tokens cancel
    v, giving conjugacy pairs (x_i.x_j^-1, y_i.y_j^-1) for u; a u-candidate
    then fixes v. A solved instance recovers a u- and v-candidate that the
    solver's filter checked on every index of the subset; a failed check is
    no evidence, never a proof of emptiness.
    """
    if len(tokens) < 2:
        raise ValueError("need at least two tokens")
    if subsets is None:
        subsets = (tuple(range(len(tokens))),)

    reports: list[AttackReport] = []
    for subset in subsets:
        if len(subset) < 2:
            raise ValueError(f"subset {subset} too small")
        index_pairs = tuple(itertools.combinations(subset, 2))
        inst_u = build_difference_instance(
            tokens, index_pairs, "left", config.alphabet, (("extractor", "edl-u"),)
        )

        # A u-candidate pins the v-side: v = x0^-1.u^-1.y0. Verifying that
        # pair on the whole subset during the search keeps the answer sound
        # and finds a pair even when the conjugacy solution is not unique.
        x0, y0 = tokens[subset[0]]

        def derive_v(u_cand: BraidWord) -> BraidWord | None:
            v_cand = compose_all([invert(x0), invert(u_cand), y0])
            verified = all(
                words_equal(tokens[i][1], compose_all([u_cand, tokens[i][0], v_cand]))
                for i in subset
            )
            return v_cand if verified else None

        run = _Run("edl")
        rep_u, v_cand = _solve(inst_u, config, derive_v)
        if rep_u.solved:
            run.recovered.append(("u-candidate", rep_u.solution))
        reports.append(run.recover(rep_u, v_cand, "v-candidate"))
    return tuple(reports)


def solve_gtcp(
    samples: tuple[tuple[BraidWord, BraidWord], ...],
    endos: tuple[Endomorphism, Endomorphism, Endomorphism],
    mode: str,
    secret_spec: SubgroupSpec,
    config: SolverConfig,
) -> AttackReport:
    """
    Recover the secret r behind tokens y_i = u(r).v(p_i).w(r^-1). The
    instance alphabet is the relevant map's image of the secret subgroup,
    so raw solutions pull back through the map literally; the solver's
    filter lifts each candidate and keeps it only when it recomputes every
    sample token, so a solved instance is a recovered r.
    """
    u, v, w = endos
    inst = build_gtcp_instances(samples, endos, mode, secret_spec)
    # The enumerated raw word lies in the image alphabet of the map that
    # carries the secret for this mode (u for ce1/ce3, w for ce2/ce4).
    carrier_endo = u if mode in ("pairwise-ce1", "centralizer-ce3") else w

    def reproducing_r(candidate: BraidWord) -> BraidWord | None:
        r = _lift(carrier_endo, candidate)
        reproduces = r is not None and all(
            words_equal(
                compose_all([apply_endo(u, r), apply_endo(v, p), apply_endo(w, invert(r))]), y
            )
            for y, p in samples
        )
        return r if reproduces else None

    run = _Run(f"gtcp-{mode}")
    return run.recover(*_solve(inst, config, reproducing_r), "r-candidate")


def attack_dehornoy_centralizer(
    r_spec: SubgroupSpec,
    base: BraidWord,
    commitment: BraidWord,
    config: SolverConfig,
) -> AttackReport:
    """
    Recover the nonce r behind a shifted-conjugacy commitment x = r*p when
    r comes from a published subgroup R. Probes commuting with R conjugate
    through x by d(p).sigma_1.d(r)^-1 only; the instance searches the
    shifted R generators against the fixed public factor d(p).sigma_1, so
    the raw solution is d(r), which unshifts to r. The solver's filter
    unshifts each candidate and keeps it only when it reproduces the
    commitment, so a solved instance is a recovered r. The probes come
    from a centralizer search of R over words of length <= 2.
    """
    elements = centralizer_search(r_spec, 2)
    probes = tuple(p.embed(commitment.strands) for p in elements if len(p) > 0)
    inst = build_dehornoy_centralizer_instance(commitment, probes, r_spec, base)
    commits = _reproduces(base, commitment)

    def committing_r(candidate: BraidWord) -> BraidWord | None:
        r = _lift(SHIFT_ENDO, candidate)
        return r if r is not None and commits(r) else None

    run = _Run("dehornoy-centralizer")
    return run.recover(*_solve(inst, config, committing_r), "r-candidate")


def attack_dehornoy_pair(
    commitment: BraidWord,
    commitment_prime: BraidWord,
    base: BraidWord,
    public_key: BraidWord,
    response: BraidWord,
    config: SolverConfig,
) -> AttackReport:
    """
    Full secret recovery from one authentication round: the two
    commitments x = r*p and x' = r*p' share the nonce r, so x.x'^-1 is the
    conjugate of d(p).d(p')^-1 by r. Solving that conjugacy pair gives r,
    and the challenge-1 response r*s then unwraps to the long-term secret
    s = unshift(r^-1.(r*s).d(r).sigma_1^-1). The solver's filter keeps a
    candidate r only when its s reproduces the public key s*base.

    The response is handle-reduced once, before the search, so each
    candidate's unwrap reduces a short word that is the same element.
    """
    inst = build_difference_instance(
        ((shift(base), commitment), (shift(public_key), commitment_prime)),
        ((0, 1),),
        "left",
        config.alphabet,
        (("extractor", "dehornoy-pair"),),
    )
    run = _Run("dehornoy-pair")
    x = inst.forms[0][0]
    if not run.check("informative-instance", (x.infimum, x.factors) != (0, ())):
        return run.report()
    try:
        t = handle_reduce(response)
    except ReductionBudgetExceeded:
        t = response
    sigma_1_inv = invert(generator(response.strands, 1))
    keyed = _reproduces(base, public_key)

    def key_secret(r: BraidWord) -> BraidWord | None:
        s_c = _lift(SHIFT_ENDO, compose_all([invert(r), t, shift(r), sigma_1_inv]))
        return s_c if s_c is not None and keyed(s_c) else None

    rep, s_c = _solve(inst, config, key_secret)
    if rep.solved:
        run.recovered.append(("r-candidate", rep.raw_word))  # recorded before s
    return run.recover(rep, s_c, "s-candidate")


def partial_factor_attack(
    token: BraidWord,
    probes: tuple[BraidWord, ...],
    config: SolverConfig,
) -> list[AttackReport]:
    """
    Peel partial base information off a token u = h.z (h in the search
    subgroup), one `partial-factor` report per probe: conjugating a probe S
    by u and solving the conjugacy pair (S, u.S.u^-1) yields a head
    candidate s, the report's solution; the residual s^-1.u is the part of
    z commuting with S when the peel is exact. The product s.residual = u
    holds by construction, so the one certificate is commutation: a report
    succeeds exactly on an exact peel. A caller peels the next level by
    calling again on the head, rewrite(s).
    """
    reports: list[AttackReport] = []
    form = normal_form(token)
    for probe in probes:
        inst = build_conjugation_instance(
            form, (probe,), "left", config.alphabet, meta=(("extractor", "partial-factor"),)
        )
        run = _Run("partial-factor")
        rep = solve_exhaustive(inst, config)
        if run.solved("instance-solved", rep):
            residual = rewrite(compose(invert(rep.solution), token))
            run.recovered.append(("residual", residual))
            run.check("residual-commutes-with-probe", elements_commute(residual, probe))
        reports.append(run.report())
    return reports


def complete_base(
    token: BraidWord,
    residual: BraidWord,
    head_alphabet: SubgroupSpec,
    tail_alphabet: SubgroupSpec,
    head_max_length: int,
    tail_max_length: int,
) -> BraidWord | None:
    """
    Brute-force completion of a peeled base: find the shortest tail word
    z_bar with token.residual^-1.z_bar^-1 expressible over the head
    alphabet (checked against an exhaustive head enumeration), and return
    the full base z_bar.residual. None when the budgets do not cover the
    complementary factor.
    """
    n = max(token.strands, head_alphabet.strands, tail_alphabet.strands)
    head_keys = {
        nf_key(w, n) for w in enumerate_products(head_alphabet.generators, head_max_length)
    }
    peeled = compose(token, invert(residual))
    for z_bar in enumerate_products(tail_alphabet.generators, tail_max_length):
        if nf_key(compose(peeled, invert(z_bar)), n) in head_keys:
            return rewrite(compose(z_bar, residual))
    return None
