"""
Conjugacy extractors: pure transformations from public protocol data to
conjugacy-search instances.

Every extractor conjugates a probe by a public token (or takes a
difference of two tokens); the commutation conditions of the protocol make
the secret's partner factor cancel, leaving a conjugation by a coset
element such as a1.z. Collecting several probes gives a simultaneous
instance whose solution breaks the protocol.

Instance convention: a solution g satisfies g x_i g^-1 = y_i for every
pair. The optional post_transform t records how to turn the recovered
coset element back into the secret (secret = g . t for the left-hand
sides). Probe outputs are re-expanded from normal form before being put in
an instance, modelling an attacker who only sees canonical public values.
"""

from __future__ import annotations

import dataclasses

from .garside import rewrite, words_equal
from .protocols import PublicTranscript
from .subgroups import CentralizerReport, SubgroupSpec, centralizer_search
from .words import (
    BraidWord,
    Endomorphism,
    apply_endo,
    compose,
    compose_all,
    expect_list,
    expect_object,
    invert,
    power,
)


@dataclasses.dataclass(frozen=True)
class CspInstance:
    """A (multiple simultaneous) conjugacy-search instance.

    A single pair is a plain conjugacy search; several pairs share one
    conjugator. `alphabet` names the subgroup the enumeration draws
    candidates from; `post_transform` is the fixed right factor taking the
    recovered conjugator back to the attacked secret."""

    pairs: tuple[tuple[BraidWord, BraidWord], ...]
    alphabet: SubgroupSpec
    post_transform: BraidWord | None = None
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("instance needs at least one pair")

    @property
    def strands(self) -> int:
        n = self.alphabet.strands
        for x, y in self.pairs:
            n = max(n, x.strands, y.strands)
        if self.post_transform is not None:
            n = max(n, self.post_transform.strands)
        return n

    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)

    def to_record(self) -> dict:
        return {
            "pairs": [{"x": x.to_record(), "y": y.to_record()} for x, y in self.pairs],
            "alphabet": self.alphabet.to_record(),
            "post_transform": (
                self.post_transform.to_record() if self.post_transform else None
            ),
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_record(record: dict) -> CspInstance:
        expect_object(record, "an instance record")
        post = record.get("post_transform")
        meta = expect_object(record.get("meta", {}), "an instance's meta")
        pairs = [
            expect_object(p, "an instance pair")
            for p in expect_list(record["pairs"], "an instance's pairs")
        ]
        return CspInstance(
            tuple(
                (BraidWord.from_record(p["x"]), BraidWord.from_record(p["y"]))
                for p in pairs
            ),
            SubgroupSpec.from_record(record["alphabet"]),
            BraidWord.from_record(post) if post else None,
            tuple(sorted(meta.items())),
        )


@dataclasses.dataclass(frozen=True)
class CeSample:
    """One raw extractor evaluation: probe conjugated by a public token."""

    probe: BraidWord
    side: str  # "left": token.probe.token^-1 | "right": token^-1.probe.token
    token: BraidWord
    output: BraidWord


def ce_conjugate_sample(token: BraidWord, probe: BraidWord, side: str) -> CeSample:
    """Conjugate a probe by a token, exactly as composed (no simplification)."""
    if side == "left":
        output = compose_all([token, probe, invert(token)])
    elif side == "right":
        output = compose_all([invert(token), probe, token])
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return CeSample(probe, side, token, output)


def ce_difference_pair(y_i: BraidWord, y_j: BraidWord, side: str) -> BraidWord:
    """Difference of two tokens sharing a secret: left y_i.y_j^-1, right y_j^-1.y_i."""
    if side == "left":
        return compose(y_i, invert(y_j))
    if side == "right":
        return compose(invert(y_j), y_i)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


# Which token / probe source / conjugation side each extractor target uses.
# Targets are named after the secret factor the recovered conjugator carries.
_DHDP_ROUTES = {
    # target: (token attr, probe spec attr, side, coset description)
    "a": ("token_a", "right_b", "left", "a1.z"),
    "c": ("token_b", "right_a", "left", "b1.z"),
    "b": ("token_a", "left_b", "right", "a2^-1.z^-1"),
    "d": ("token_b", "left_a", "right", "b2^-1.z^-1"),
}


def _spec_letter_indices(spec: SubgroupSpec) -> set[int]:
    indices: set[int] = set()
    for g in spec.generators:
        indices |= {abs(x) for x in g.letters}
    return indices


def _check_probe_membership(probe: BraidWord, spec: SubgroupSpec) -> None:
    """Probes must come from the prescribed commutant subgroup. Checked at the
    generator level: every letter index must appear in the spec's generators."""
    allowed = _spec_letter_indices(spec)
    used = {abs(x) for x in probe.letters}
    if not used <= allowed:
        raise ValueError(
            f"probe uses generators {sorted(used - allowed)} outside the "
            f"commutant spec {spec.name!r}"
        )


def build_mscsp_dhdp(
    transcript: PublicTranscript,
    target: str,
    probes: tuple[BraidWord, ...] | None = None,
) -> CspInstance:
    """
    Simultaneous conjugacy instance for one secret of a decomposition-type
    transcript.

    target "a" conjugates probes commuting with the a2-side by K_A, so the
    recovered conjugator is a1.z; "b" uses the inverse conjugation and
    recovers a2^-1.z^-1; "c"/"d" do the same for Bob's token. The search
    alphabet is the subgroup the targeted secret was sampled from.
    """
    if target not in _DHDP_ROUTES:
        raise ValueError(f"target must be one of a/b/c/d, got {target!r}")
    token_attr, probe_attr, side, coset = _DHDP_ROUTES[target]
    token: BraidWord = getattr(transcript, token_attr)
    cfg = transcript.config
    probe_spec: SubgroupSpec = getattr(cfg, probe_attr)
    if probes is None:
        probes = probe_spec.generators
    if not probes:
        raise ValueError("at least one probe is required")
    for probe in probes:
        _check_probe_membership(probe, probe_spec)

    pairs = tuple(
        (probe, rewrite(ce_conjugate_sample(token, probe, side).output))
        for probe in probes
    )
    alphabet = {
        "a": cfg.left_a,
        "c": cfg.left_b,
        "b": cfg.right_a,
        "d": cfg.right_b,
    }[target]
    # Coset shape: left targets recover w.z, right targets recover w.z^-1
    # (w in the alphabet), so "secret-ish = g . post" needs the matching sign.
    z = cfg.base
    if not len(z):
        post = None
    elif side == "left":
        post = invert(z)
    else:
        post = z
    meta = (
        ("extractor", f"dhdp-{target}"),
        ("side", side),
        ("coset", coset),
        ("preset", cfg.preset),
    )
    return CspInstance(pairs, alphabet, post, meta)


def build_stickel_instance(
    a: BraidWord, b: BraidWord, token: BraidWord, alpha: int
) -> CspInstance:
    """Single-pair instance (b^alpha, c.b^alpha.c^-1) with solution family a^r."""
    if alpha < 1:
        raise ValueError("probe exponent must be at least 1")
    probe = power(b, alpha)
    out = rewrite(ce_conjugate_sample(token, probe, "left").output)
    alphabet = SubgroupSpec("<a>", a.strands, (a,))
    meta = (("extractor", "stickel"), ("alpha", str(alpha)))
    return CspInstance(((probe, out),), alphabet, None, meta)


def build_gtcp_instances(
    samples: tuple[tuple[BraidWord, BraidWord], ...],
    endos: tuple[Endomorphism, Endomorphism, Endomorphism],
    mode: str,
    secret_spec: SubgroupSpec,
    centralizer_length: int = 1,
    sample_index: int = 0,
) -> CspInstance:
    """
    Conjugacy instance for twisted-conjugacy style tokens y_i = u(r) v(p_i) w(r^-1).

    Pairwise modes difference two tokens so the w-side (or u-side) cancels:
    "pairwise-ce1" targets u(r) with pairs (v(p_i).v(p_j)^-1, y_i.y_j^-1),
    "pairwise-ce2" targets w(r^-1)^-1 with pairs (v(p_j)^-1.v(p_i), y_j^-1.y_i).
    Centralizer modes conjugate probes commuting with the cancelled side by a
    single token: "centralizer-ce3" targets u(r).v(p_i) with probes from the
    centralizer of w's images of the secret subgroup; "centralizer-ce4"
    targets w(r^-1)^-1.v(p_i)^-1 with probes from the centralizer of u's
    images. `samples` holds (y_i, p_i); the secret r is sampled from
    secret_spec, whose generator images define the enumeration alphabet.
    """
    u, v, w = endos
    ys = [y for y, _ in samples]
    vps = [apply_endo(v, p) for _, p in samples]
    n = max(max(y.strands for y in ys), max(vp.strands for vp in vps))

    if mode in ("pairwise-ce1", "pairwise-ce2"):
        if len(samples) < 2:
            raise ValueError("pairwise modes need at least two samples")
        pairs = []
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                if words_equal(vps[i], vps[j]):
                    continue
                if mode == "pairwise-ce1":
                    pairs.append(
                        (
                            rewrite(ce_difference_pair(vps[i], vps[j], "left")),
                            rewrite(ce_difference_pair(ys[i], ys[j], "left")),
                        )
                    )
                else:
                    pairs.append(
                        (
                            rewrite(ce_difference_pair(vps[i], vps[j], "right")),
                            rewrite(ce_difference_pair(ys[i], ys[j], "right")),
                        )
                    )
        if not pairs:
            raise ValueError("all sample pairs have equal v(p); pairwise mode impossible")
        endo = u if mode == "pairwise-ce1" else w
        alphabet = _endo_image_spec(f"gtcp-{mode}", endo, secret_spec)
        meta = (("extractor", mode), ("target", "u(r)" if mode == "pairwise-ce1" else "w(r^-1)^-1"))
        return CspInstance(tuple(pairs), alphabet, None, meta)

    if mode in ("centralizer-ce3", "centralizer-ce4"):
        cancelled = w if mode == "centralizer-ce3" else u
        cancelled_spec = _endo_image_spec("gtcp-cancelled", cancelled, secret_spec)
        # Probes must commute with the cancelled side's image of the secret.
        ambient = SubgroupSpec(
            "ambient",
            n,
            tuple(
                BraidWord(n, (i,)) for i in range(1, n)
            ),
        )
        report = centralizer_search(cancelled_spec, centralizer_length, ambient)
        probes = tuple(p for p in report.elements if len(p) > 0)
        if not probes:
            raise ValueError("empty centralizer report; cannot build instance")
        y = ys[sample_index]
        side = "left" if mode == "centralizer-ce3" else "right"
        pairs = tuple(
            (probe, rewrite(ce_conjugate_sample(y, probe, side).output))
            for probe in probes
        )
        searched = u if mode == "centralizer-ce3" else w
        alphabet = _endo_image_spec(f"gtcp-{mode}", searched, secret_spec)
        # secret-side factor = solution . post (cf. right-multiplying by z^-1)
        vp = vps[sample_index]
        post = rewrite(invert(vp)) if mode == "centralizer-ce3" else rewrite(vp)
        meta = (
            ("extractor", mode),
            ("sample_index", str(sample_index)),
            ("target", "u(r).v(p_i)" if mode == "centralizer-ce3" else "w(r^-1)^-1.v(p_i)^-1"),
        )
        return CspInstance(pairs, alphabet, post, meta)

    raise ValueError(f"unknown GTCP mode {mode!r}")


def _endo_image_spec(name: str, f: Endomorphism, spec: SubgroupSpec) -> SubgroupSpec:
    gens = tuple(apply_endo(f, g) for g in spec.generators)
    n = max(g.strands for g in gens)
    return SubgroupSpec(name, n, gens)


def build_dehornoy_centralizer_instance(
    commitment: BraidWord,
    probes: tuple[BraidWord, ...],
) -> CspInstance:
    """
    Instance from a shifted-conjugacy commitment x = r*p and probes commuting
    with r: pairs (N, x^-1.N.x), solved by the inverse of O = d(p).sigma_1.d(r)^-1.
    Central probes (Delta^2 powers) conjugate trivially and are flagged in meta.
    """
    if not probes:
        raise ValueError("at least one probe is required")
    n = commitment.strands
    pairs = tuple(
        (probe, rewrite(ce_conjugate_sample(commitment, probe, "right").output))
        for probe in probes
    )
    degenerate = [
        str(i) for i, (probe, out) in enumerate(pairs) if words_equal(probe, out)
    ]
    alphabet = SubgroupSpec("probes", n, probes)
    meta = (
        ("extractor", "dehornoy-centralizer"),
        ("degenerate_pairs", ",".join(degenerate)),
    )
    return CspInstance(pairs, alphabet, None, meta)
