"""
Conjugacy extractors: pure transformations from public protocol data to
conjugacy-search instances.

Every extractor conjugates a probe by a public token (or takes a
difference of two tokens); the commutation conditions of the protocol make
the secret's partner factor cancel, leaving a conjugation by a coset
element such as a1.z. Collecting several probes gives a simultaneous
instance whose solution breaks the protocol.

Every instance of the library is built here, by `build_conjugation_instance`
(probes conjugated by one token) or `build_difference_instance`
(differences of samples sharing a secret factor). Each instance side they
compute is a canonical value, modelling an attacker who only sees canonical
public values: the conjugation builder computes it by arithmetic on normal
forms, the difference builder normalises the composed word. The
conjugation builder takes its token as a normal form: `build_mscsp_dhdp`
passes the transcript's form of K_A or K_B as it stands, and a caller that
holds a token as a word normalises it once. An instance holds only these
normal forms, which the solvers read; only its `pairs`, and so
`to_record`, spell them as words. Their callers choose tokens, probes,
sides and alphabets.

Instance convention: a solution g satisfies g x_i g^-1 = y_i for every
pair. The optional post_transform t records how to turn the recovered
coset element back into the secret (secret = g . t for the left-hand
sides).
"""

from __future__ import annotations

import dataclasses
import functools

from .garside import (
    GarsideNormalForm,
    commutes_by_support,
    embed,
    inverse,
    normal_form,
    product,
    rewrite,
    words_equal,
)
from .protocols import PublicTranscript
from .subgroups import SubgroupSpec, centralizer_search, letter_support
from .words import (
    BraidWord,
    Endomorphism,
    apply_endo,
    compose,
    compose_all,
    expect_list,
    expect_object,
    generator,
    invert,
    power,
    shift,
)


@dataclasses.dataclass(frozen=True)
class CspInstance:
    """A (multiple simultaneous) conjugacy-search instance.

    A single pair is a plain conjugacy search; several pairs share one
    conjugator. `forms` holds the normal forms (x, y) of each pair, the
    only form the instance keeps; `pairs` spells them for the record, and
    `from_words` normalises the words a record reads. `alphabet` names the
    subgroup the enumeration draws candidates from; `post_transform` is the
    fixed right factor taking the recovered conjugator back to the attacked
    secret; `meta` is kept in key order."""

    forms: tuple[tuple[GarsideNormalForm, GarsideNormalForm], ...]
    alphabet: SubgroupSpec
    post_transform: BraidWord | None
    meta: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("instance needs at least one pair")
        if not isinstance(self.alphabet, SubgroupSpec):
            raise ValueError("instance needs an explicit search alphabet")
        object.__setattr__(self, "meta", tuple(sorted(self.meta)))

    @staticmethod
    def from_words(
        pairs: tuple[tuple[BraidWord, BraidWord], ...],
        alphabet: SubgroupSpec,
        post_transform: BraidWord | None,
        meta: tuple[tuple[str, str], ...],
    ) -> CspInstance:
        """The instance whose pairs are these words, each normalised once."""
        forms = tuple((normal_form(x), normal_form(y)) for x, y in pairs)
        return CspInstance(forms, alphabet, post_transform, meta)

    @functools.cached_property
    def pairs(self) -> tuple[tuple[BraidWord, BraidWord], ...]:
        """The forms spelt as words, which the record writes."""
        return tuple((x.to_word(), y.to_word()) for x, y in self.forms)

    @property
    def strands(self) -> int:
        n = max([self.alphabet.strands] + [f.strands for pair in self.forms for f in pair])
        return n if self.post_transform is None else max(n, self.post_transform.strands)

    def to_record(self) -> dict:
        post = self.post_transform
        return {
            "pairs": [{"x": x.to_record(), "y": y.to_record()} for x, y in self.pairs],
            "alphabet": self.alphabet.to_record(),
            "post_transform": post.to_record() if post is not None else None,
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
        words = [(BraidWord.from_record(p["x"]), BraidWord.from_record(p["y"])) for p in pairs]
        return CspInstance.from_words(
            tuple(words),
            SubgroupSpec.from_record(record["alphabet"]),
            BraidWord.from_record(post) if post is not None else None,
            tuple(meta.items()),
        )


def ce_conjugate_sample(token: BraidWord, probe: BraidWord, side: str) -> BraidWord:
    """Conjugate a probe by a token, exactly as composed (no simplification):
    left token.probe.token^-1, right token^-1.probe.token."""
    if side == "left":
        return compose_all([token, probe, invert(token)])
    if side == "right":
        return compose_all([invert(token), probe, token])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def ce_difference_pair(y_i: BraidWord, y_j: BraidWord, side: str) -> BraidWord:
    """Difference of two tokens sharing a secret: left y_i.y_j^-1, right y_j^-1.y_i."""
    if side == "left":
        return compose(y_i, invert(y_j))
    if side == "right":
        return compose(invert(y_j), y_i)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def build_conjugation_instance(
    token: GarsideNormalForm,
    probes: tuple[BraidWord, ...],
    side: str,
    alphabet: SubgroupSpec,
    post_transform: BraidWord | None = None,
    meta: tuple[tuple[str, str], ...] = (),
) -> CspInstance:
    """One pair (probe, probe conjugated by the token on `side`) per probe,
    as `ce_conjugate_sample` composes it, built by normal-form arithmetic:
    the token's normal form T is embedded and inverted in closed form, and
    each conjugate is L.NF(probe).R with (L, R) = (T, T^-1) on the left and
    (T^-1, T) on the right. The pair's forms are (NF(probe), L.NF(probe).R),
    both on the larger of the token's and the probe's strand counts; the
    instance holds these forms and spells no word. When the embedded T
    commutes with every letter of the probe by generator supports
    (`garside.commutes_by_support`), the conjugate is NF(probe) itself and
    no product is formed, as `solvers._setup` leaves t x t^-1 as x."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    around: dict[int, tuple[GarsideNormalForm, GarsideNormalForm]] = {}
    for n in {max(token.strands, probe.strands) for probe in probes}:
        t = embed(token, n)
        around[n] = (t, inverse(t))
    forms = []
    for probe in probes:
        t, t_inv = around[max(token.strands, probe.strands)]
        middle = normal_form(probe.embed(t.strands))
        if commutes_by_support(t, letter_support(probe)):
            forms.append((middle, middle))
        elif side == "left":
            forms.append((middle, product(product(t, middle), t_inv)))
        else:
            forms.append((middle, product(product(t_inv, middle), t)))
    return CspInstance(tuple(forms), alphabet, post_transform, meta)


def build_difference_instance(
    samples: tuple[tuple[BraidWord, BraidWord], ...],
    index_pairs: tuple[tuple[int, int], ...],
    side: str,
    alphabet: SubgroupSpec,
    meta: tuple[tuple[str, str], ...] = (),
) -> CspInstance:
    """One pair per (i, j) from samples (x_k, y_k) that share the factors
    around x_k: left (x_i.x_j^-1, y_i.y_j^-1), right (x_j^-1.x_i, y_j^-1.y_i).
    Both sides are normalised; the instance holds these forms and spells no
    word."""
    forms = tuple(
        (
            normal_form(ce_difference_pair(samples[i][0], samples[j][0], side)),
            normal_form(ce_difference_pair(samples[i][1], samples[j][1], side)),
        )
        for i, j in index_pairs
    )
    return CspInstance(forms, alphabet, None, meta)


# Which token / probe source / search alphabet / conjugation side each
# extractor target uses. Targets are named after the secret factor the
# recovered conjugator carries; the alphabet is the subgroup that secret was
# sampled from.
_DHDP_ROUTES = {
    # target: (token form attr, probe spec attr, alphabet spec attr, side, coset description)
    "a": ("form_a", "right_b", "left_a", "left", "a1.z"),
    "c": ("form_b", "right_a", "left_b", "left", "b1.z"),
    "b": ("form_a", "left_b", "right_a", "right", "a2^-1.z^-1"),
    "d": ("form_b", "left_a", "right_b", "right", "b2^-1.z^-1"),
}


def build_mscsp_dhdp(transcript: PublicTranscript, target: str) -> CspInstance:
    """
    Simultaneous conjugacy instance for one secret of a decomposition-type
    transcript.

    The probes are the generators of the config's spec that commutes with
    the factor the conjugation cancels (a2 for target "a"), so they lie in
    that commutant by construction. Target "a" conjugates them by K_A, so
    the recovered conjugator is a1.z; "b" uses the inverse conjugation and
    recovers a2^-1.z^-1; "c"/"d" do the same for Bob's token. The search
    alphabet is the subgroup the targeted secret was sampled from.
    """
    if target not in _DHDP_ROUTES:
        raise ValueError(f"target must be one of a/b/c/d, got {target!r}")
    token_attr, probe_attr, alphabet_attr, side, coset = _DHDP_ROUTES[target]
    token: GarsideNormalForm = getattr(transcript, token_attr)
    cfg = transcript.config
    probes = getattr(cfg, probe_attr).generators
    alphabet: SubgroupSpec = getattr(cfg, alphabet_attr)
    # Coset shape: left targets recover w.z, right targets recover w.z^-1
    # (w in the alphabet), so "secret-ish = g . post" needs the matching sign.
    z = cfg.base
    post = (invert(z) if side == "left" else z) if len(z) else None
    meta = (
        ("extractor", f"dhdp-{target}"),
        ("side", side),
        ("coset", coset),
        ("preset", cfg.preset),
    )
    return build_conjugation_instance(token, probes, side, alphabet, post, meta)


def build_stickel_instance(
    a: BraidWord, b: BraidWord, token: BraidWord, alpha: int
) -> CspInstance:
    """Single-pair instance (b^alpha, c.b^alpha.c^-1) with solution family a^r."""
    if alpha < 1:
        raise ValueError("probe exponent must be at least 1")
    alphabet = SubgroupSpec("<a>", a.strands, (a,))
    meta = (("extractor", "stickel"), ("alpha", str(alpha)))
    return build_conjugation_instance(
        normal_form(token), (power(b, alpha),), "left", alphabet, meta=meta
    )


def build_gtcp_instances(
    samples: tuple[tuple[BraidWord, BraidWord], ...],
    endos: tuple[Endomorphism, Endomorphism, Endomorphism],
    mode: str,
    secret_spec: SubgroupSpec,
) -> CspInstance:
    """
    Conjugacy instance for twisted-conjugacy style tokens y_i = u(r) v(p_i) w(r^-1).

    Pairwise modes difference two tokens so the w-side (or u-side) cancels:
    "pairwise-ce1" targets u(r) with pairs (v(p_i).v(p_j)^-1, y_i.y_j^-1),
    "pairwise-ce2" targets w(r^-1)^-1 with pairs (v(p_j)^-1.v(p_i), y_j^-1.y_i).
    Centralizer modes conjugate probes commuting with the cancelled side
    (found by a centralizer search over words of length <= 1) by the first
    sample's token, i = 0: "centralizer-ce3" targets u(r).v(p_i) with probes
    from the centralizer of w's images of the secret subgroup;
    "centralizer-ce4" targets w(r^-1)^-1.v(p_i)^-1 with probes from the
    centralizer of u's images. `samples` holds (y_i, p_i); the secret r is
    sampled from secret_spec, whose generator images define the enumeration
    alphabet.
    """
    u, v, w = endos
    ys = [y for y, _ in samples]
    vps = [apply_endo(v, p) for _, p in samples]

    if mode in ("pairwise-ce1", "pairwise-ce2"):
        if len(samples) < 2:
            raise ValueError("pairwise modes need at least two samples")
        index_pairs = tuple(
            (i, j)
            for i in range(len(samples))
            for j in range(i + 1, len(samples))
            if not words_equal(vps[i], vps[j])
        )
        if not index_pairs:
            raise ValueError("all sample pairs have equal v(p); pairwise mode impossible")
        ce1 = mode == "pairwise-ce1"
        alphabet = _endo_image_spec(f"gtcp-{mode}", u if ce1 else w, secret_spec)
        meta = (("extractor", mode), ("target", "u(r)" if ce1 else "w(r^-1)^-1"))
        return build_difference_instance(
            tuple(zip(vps, ys)), index_pairs, "left" if ce1 else "right", alphabet, meta
        )

    if mode in ("centralizer-ce3", "centralizer-ce4"):
        ce3 = mode == "centralizer-ce3"
        cancelled_spec = _endo_image_spec("gtcp-cancelled", w if ce3 else u, secret_spec)
        # Probes must commute with the cancelled side's image of the secret.
        n = max(cancelled_spec.strands, *(y.strands for y in ys), *(vp.strands for vp in vps))
        elements = centralizer_search(dataclasses.replace(cancelled_spec, strands=n), 1)
        probes = tuple(p for p in elements if len(p) > 0)
        alphabet = _endo_image_spec(f"gtcp-{mode}", u if ce3 else w, secret_spec)
        # secret-side factor = solution . post (cf. right-multiplying by z^-1)
        post = rewrite(invert(vps[0])) if ce3 else rewrite(vps[0])
        meta = (
            ("extractor", mode),
            ("target", "u(r).v(p_i)" if ce3 else "w(r^-1)^-1.v(p_i)^-1"),
        )
        return build_conjugation_instance(
            normal_form(ys[0]), probes, "left" if ce3 else "right", alphabet, post, meta
        )

    raise ValueError(f"unknown GTCP mode {mode!r}")


def _endo_image_spec(name: str, f: Endomorphism, spec: SubgroupSpec) -> SubgroupSpec:
    gens = tuple(apply_endo(f, g) for g in spec.generators)
    n = max(g.strands for g in gens)
    return SubgroupSpec(name, n, gens)


def build_dehornoy_centralizer_instance(
    commitment: BraidWord,
    probes: tuple[BraidWord, ...],
    r_spec: SubgroupSpec,
    base: BraidWord,
) -> CspInstance:
    """
    Instance from a shifted-conjugacy commitment x = r*p, with r drawn from
    the subgroup R, and probes commuting with R: pairs (N, x^-1.N.x), solved
    by the inverse of O = d(p).sigma_1.d(r)^-1, that is by d(r).(d(p).sigma_1)^-1.
    The alphabet is d(R) and the post_transform d(p).sigma_1, so the
    enumerated word is d(r). Central probes (Delta^2 powers) conjugate
    trivially, so their pair's two forms are equal, and are flagged in meta.
    """
    if not probes:
        raise ValueError("at least one probe is required")
    n = commitment.strands
    alphabet = SubgroupSpec(
        f"d({r_spec.name})", n, tuple(shift(g) for g in r_spec.generators)
    )
    post = compose(shift(base), generator(n, 1))
    inst = build_conjugation_instance(normal_form(commitment), probes, "right", alphabet, post)
    degenerate = [str(i) for i, (probe, out) in enumerate(inst.forms) if probe == out]
    meta = (
        ("extractor", "dehornoy-centralizer"),
        ("degenerate_pairs", ",".join(degenerate)),
    )
    return dataclasses.replace(inst, meta=meta)
