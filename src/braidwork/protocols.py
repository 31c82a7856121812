"""
Honest-party implementations of the generalized key agreement and of the
shifted-conjugacy authentication scheme, with presets.

The key agreement works over four subgroup specs L_A, R_A, L_B, R_B and a
public base element z. Alice samples (a1, a2) from (L_A, R_A) and
publishes K_A = a1 z a2; Bob does the same on his side; the shared key is
kappa = a1 K_B a2 = b1 K_A b2, which agree exactly when the cross-party
commutation conditions hold. The round multiplies normal forms, each secret
and z normalised once (klchkp's a2 = a1^-1 inverted in closed form), and the
transcripts keep K_A, K_B and kappa as those normal forms. A token or the
key is spelt as a canonical word only when it is read as one (a record, a
word-level attack), so an attacker never sees the literal letters the
secrets were typed with.

Presets: "generalized" (decomposition with all commutation conditions of
the z != e mode), "klchkp" (conjugacy shape, a2 = a1^-1), "cklhc"
(two-sided decomposition over disjoint intervals), "stickel" (cyclic
subgroups of two fixed non-commuting words, z = e), "shpilrain-central"
(peer subgroups published from a centralizer search of committed
elements), and "dehornoy" for the authentication scheme. The table
MIN_STRANDS is the one list of the key-agreement presets, with the fewest
strands each needs. The rest of a preset's shape is derived, not stored:
only stickel runs the conditions-3 mode, only klchkp has conjugate
secrets, and stickel's words (a, b) generate L_A = L_B and R_A = R_B.
make_preset chooses a preset's subgroup specs, and every KaConfig, built
or read from a record, passes the one check in its __post_init__.
"""

from __future__ import annotations

import dataclasses
import functools
import random

from .garside import GarsideNormalForm, inverse, normal_form, product, rewrite, words_equal
from .subgroups import (
    SubgroupSpec,
    centralizer_search,
    elements_commute,
    interval_generators,
    sets_commute,
)
from .words import (
    MAX_SECRET_LENGTH,
    BraidWord,
    expect_object,
    expect_secret_length,
    expect_strands,
    expect_type,
    generator,
    identity,
    invert,
    power,
    random_word,
    shifted_conjugate,
)

MIN_STRANDS = {"generalized": 8, "klchkp": 5, "cklhc": 5, "stickel": 4, "shpilrain-central": 8}
KA_PRESETS = tuple(MIN_STRANDS)


class ProtocolError(ValueError):
    """Raised for invalid configurations or failed condition checks."""


def _check_preset(name: str, strands: int) -> None:
    if name not in MIN_STRANDS:
        raise ProtocolError(f"unknown preset {name!r}")
    if strands < MIN_STRANDS[name]:
        raise ProtocolError(f"{name} preset needs at least {MIN_STRANDS[name]} strands")


def _check_strands(what: str, part: BraidWord | SubgroupSpec, strands: int) -> None:
    if part.strands != strands:
        raise ProtocolError(f"{what} is on {part.strands} strands, not the config's {strands}")


@dataclasses.dataclass(frozen=True)
class KaConfig:
    """Public parameters of one key-agreement setup. Every config, built by
    `make_preset` or read by `from_record`, passes the one check in
    `__post_init__`."""

    preset: str
    strands: int
    left_a: SubgroupSpec
    right_a: SubgroupSpec
    left_b: SubgroupSpec
    right_b: SubgroupSpec
    base: BraidWord  # the public element z
    secret_length: int = 8
    positive_only: bool = False
    exponent_bound: int = 5

    def __post_init__(self):
        _check_preset(self.preset, self.strands)
        expect_secret_length(self.secret_length)
        if not 0 <= self.exponent_bound <= MAX_SECRET_LENGTH:
            raise ProtocolError(f"exponent_bound {self.exponent_bound} is outside "
                                f"0..{MAX_SECRET_LENGTH}")
        for what in ("left_a", "right_a", "left_b", "right_b", "base"):
            _check_strands(what, getattr(self, what), self.strands)
        if self.preset == "stickel":
            if len(self.base) != 0:
                raise ProtocolError("conditions-3 requires the base element z = e")
            for side in ("left", "right"):
                spec_a, spec_b = getattr(self, f"{side}_a"), getattr(self, f"{side}_b")
                if spec_b != spec_a or len(spec_a.generators) != 1:
                    raise ProtocolError(f"stickel needs {side}_b = {side}_a, one generator each")

    @property
    def condition_mode(self) -> str:
        return "conditions-3" if self.preset == "stickel" else "conditions-2"

    @property
    def conjugate_secrets(self) -> bool:
        """a2 = a1^-1 and b2 = b1^-1 (the conjugacy shape of klchkp)."""
        return self.preset == "klchkp"

    @property
    def stickel_pair(self) -> tuple[BraidWord, BraidWord] | None:
        """Stickel's (a, b), the generators of L_A = L_B and R_A = R_B; else None."""
        if self.preset != "stickel":
            return None
        return self.left_a.generators[0], self.right_a.generators[0]

    def to_record(self) -> dict:
        return {
            "preset": self.preset,
            "n": self.strands,
            "left_a": self.left_a.to_record(),
            "right_a": self.right_a.to_record(),
            "left_b": self.left_b.to_record(),
            "right_b": self.right_b.to_record(),
            "z": self.base.to_record(),
            "condition_mode": self.condition_mode,
            "secret_length": self.secret_length,
            "positive_only": self.positive_only,
            "conjugate_secrets": self.conjugate_secrets,
            "stickel_pair": [w.to_record() for w in self.stickel_pair or ()] or None,
            "exponent_bound": self.exponent_bound,
        }

    @staticmethod
    def from_record(record: dict) -> KaConfig:
        """The config a record holds. Its condition_mode, conjugate_secrets
        and stickel_pair must be the values its preset and specs fix."""
        expect_object(record, "a protocol config record")
        config = KaConfig(
            preset=expect_type(record["preset"], str, "preset"),
            strands=expect_strands(expect_type(record["n"], int, "n")),
            left_a=SubgroupSpec.from_record(record["left_a"]),
            right_a=SubgroupSpec.from_record(record["right_a"]),
            left_b=SubgroupSpec.from_record(record["left_b"]),
            right_b=SubgroupSpec.from_record(record["right_b"]),
            base=BraidWord.from_record(record["z"]),
            secret_length=expect_type(record["secret_length"], int, "secret_length"),
            positive_only=expect_type(record["positive_only"], bool, "positive_only"),
            exponent_bound=expect_type(record["exponent_bound"], int, "exponent_bound"),
        )
        fixed = config.to_record()
        for key in ("condition_mode", "conjugate_secrets", "stickel_pair"):
            if type(record[key]) is not type(fixed[key]) or record[key] != fixed[key]:
                raise ProtocolError(f"{key} {record[key]!r} contradicts the "
                                    f"{config.preset} config, which fixes {fixed[key]!r}")
        return config


@dataclasses.dataclass(frozen=True)
class NamedCheck:
    """One named pass/fail check, of a protocol condition or of an attack."""

    name: str
    passed: bool


def _commuting_checks(config: KaConfig) -> list[NamedCheck]:
    """The two '=1' conditions that key agreement needs."""
    return [
        NamedCheck("[L_A,L_B]=1", sets_commute(config.left_a, config.left_b)),
        NamedCheck("[R_A,R_B]=1", sets_commute(config.right_a, config.right_b)),
    ]


def validate_conditions(config: KaConfig) -> tuple[NamedCheck, ...]:
    """Check the commutation conditions of the configured mode. Z is the
    subgroup the base generates; a trivial base fails every '[.,Z]!=1'
    condition, since the identity commutes with everything."""
    la, ra, lb, rb = config.left_a, config.right_a, config.left_b, config.right_b
    checks = _commuting_checks(config)

    def noncommuting(name: str, a: SubgroupSpec, b: SubgroupSpec) -> None:
        checks.append(NamedCheck(name, not sets_commute(a, b)))

    if config.condition_mode == "conditions-2":
        z = SubgroupSpec("Z", config.strands, (config.base,))
        noncommuting("[L_B,Z]!=1", lb, z)
        noncommuting("[L_A,Z]!=1", la, z)
        noncommuting("[R_B,Z]!=1", rb, z)
        noncommuting("[R_A,Z]!=1", ra, z)
        noncommuting("[L_A,R_A]!=1", la, ra)
        noncommuting("[L_B,R_B]!=1", lb, rb)
    else:
        noncommuting("[L_A,R_A]!=1", la, ra)
        noncommuting("[L_B,R_B]!=1", lb, rb)
        noncommuting("[L_B,R_A]!=1", lb, ra)
        noncommuting("[L_A,R_B]!=1", la, rb)
    return tuple(checks)


@dataclasses.dataclass(frozen=True)
class PublicTranscript:
    """Attacker-visible half of one protocol run. It holds the normal forms
    of the tokens; `token_a` and `token_b` spell them as words, which the
    record writes."""

    config: KaConfig
    form_a: GarsideNormalForm  # K_A
    form_b: GarsideNormalForm  # K_B

    @functools.cached_property
    def token_a(self) -> BraidWord:
        return self.form_a.to_word()

    @functools.cached_property
    def token_b(self) -> BraidWord:
        return self.form_b.to_word()

    def to_record(self) -> dict:
        return {
            "config": self.config.to_record(),
            "K_A": self.token_a.to_record(),
            "K_B": self.token_b.to_record(),
        }

    @staticmethod
    def from_record(record: dict) -> PublicTranscript:
        expect_object(record, "a public transcript record")
        config = KaConfig.from_record(record["config"])
        tokens = [BraidWord.from_record(record[key]) for key in ("K_A", "K_B")]
        for key, token in zip(("K_A", "K_B"), tokens):
            _check_strands(key, token, config.strands)
        return PublicTranscript(config, *map(normal_form, tokens))


@dataclasses.dataclass(frozen=True)
class SecretTranscript:
    """Harness-only half: the parties' secrets and the normal form of the
    true shared key, which `kappa` spells."""

    a1: BraidWord
    a2: BraidWord
    b1: BraidWord
    b2: BraidWord
    kappa_form: GarsideNormalForm

    @functools.cached_property
    def kappa(self) -> BraidWord:
        return self.kappa_form.to_word()

    def to_record(self) -> dict:
        return {
            "a1": self.a1.to_record(),
            "a2": self.a2.to_record(),
            "b1": self.b1.to_record(),
            "b2": self.b2.to_record(),
            "kappa": self.kappa.to_record(),
        }

    @staticmethod
    def from_record(record: dict) -> SecretTranscript:
        expect_object(record, "a secret transcript record")
        a1, a2, b1, b2, kappa = (
            BraidWord.from_record(record[k]) for k in ("a1", "a2", "b1", "b2", "kappa")
        )
        return SecretTranscript(a1, a2, b1, b2, normal_form(kappa))


@dataclasses.dataclass(frozen=True)
class ProtocolTranscript:
    public: PublicTranscript
    secret: SecretTranscript


def ka_run(config: KaConfig, seed: int) -> ProtocolTranscript:
    """One seeded protocol run; asserts both parties compute the same key.
    Only the two '=1' conditions, which key agreement needs, are checked;
    the run neither checks nor reports the mode's '!=1' conditions."""
    failed = [c.name for c in _commuting_checks(config) if not c.passed]
    if failed:
        raise ProtocolError(f"commutation conditions failed: {', '.join(failed)}")

    rng = random.Random(seed)
    inverses = not config.positive_only

    if config.stickel_pair:
        a, b = config.stickel_pair
        r, s, t, u = (rng.randint(0, config.exponent_bound) for _ in range(4))
        a1, a2 = power(a, r), power(b, s)
        b1, b2 = power(a, t), power(b, u)
    elif config.conjugate_secrets:
        a1 = random_word(config.left_a.generators, config.secret_length, rng, inverses)
        a2 = invert(a1)
        b1 = random_word(config.left_b.generators, config.secret_length, rng, inverses)
        b2 = invert(b1)
    else:
        a1 = random_word(config.left_a.generators, config.secret_length, rng, inverses)
        a2 = random_word(config.right_a.generators, config.secret_length, rng, inverses)
        b1 = random_word(config.left_b.generators, config.secret_length, rng, inverses)
        b2 = random_word(config.right_b.generators, config.secret_length, rng, inverses)

    nf_a1, nf_b1, nf_z = normal_form(a1), normal_form(b1), normal_form(config.base)
    if config.conjugate_secrets:
        nf_a2, nf_b2 = inverse(nf_a1), inverse(nf_b1)
    else:
        nf_a2, nf_b2 = normal_form(a2), normal_form(b2)
    token_a = product(product(nf_a1, nf_z), nf_a2)
    token_b = product(product(nf_b1, nf_z), nf_b2)
    kappa = product(product(nf_a1, token_b), nf_a2)
    if kappa != product(product(nf_b1, token_a), nf_b2):
        raise ProtocolError("parties disagree on the shared key; bad configuration")

    public = PublicTranscript(config, token_a, token_b)
    secret = SecretTranscript(a1, a2, b1, b2, kappa)
    return ProtocolTranscript(public, secret)


def _seeded_base(strands: int, length: int, seed: int) -> BraidWord:
    gens = [generator(strands, i) for i in range(1, strands)]
    return random_word(gens, length, random.Random(f"base:{seed}"), use_inverses=True)


def make_preset(
    name: str,
    strands: int = 8,
    secret_length: int = 8,
    seed: int = 0,
    base_length: int | None = None,
    exponent_bound: int = 5,
) -> KaConfig:
    """Build the KaConfig for a named preset at desk scale: each preset
    chooses the four subgroup specs (L_A, R_A, L_B, R_B)."""
    n = strands
    _check_preset(name, n)
    if name == "generalized":
        specs = [interval_generators(n, lo, hi) for lo, hi in ((1, 2), (2, 3), (5, 6), (5, 5))]
    elif name in ("klchkp", "cklhc"):
        mid = (n + 1) // 2
        lower = interval_generators(n, 1, mid - 2)
        upper = interval_generators(n, mid, n - 1)
        specs = [lower, lower, upper, upper]
    elif name == "stickel":
        spec_a = SubgroupSpec("<a>", n, (BraidWord(n, (1, 2)),))
        spec_b = SubgroupSpec("<b>", n, (BraidWord(n, (2, 3)),))
        specs = [spec_a, spec_b, spec_a, spec_b]
    else:  # shpilrain-central
        rng = random.Random(f"commit:{seed}")
        lower = interval_generators(n, 1, 2)
        upper_src = interval_generators(n, 2, 3)
        while True:
            committed_1 = random_word(lower.generators, 2, rng)
            committed_2 = random_word(upper_src.generators, 2, rng)
            if not elements_commute(committed_1, committed_2):  # so neither is e
                break
        specs = [
            SubgroupSpec("<a1>", n, (committed_1,)),
            SubgroupSpec("<a2>", n, (committed_2,)),
            _centralizer_spec("L_B", committed_1),
            _centralizer_spec("R_B", committed_2),
        ]
    if base_length is None:
        base_length = secret_length
    base = identity(n) if name == "stickel" else _seeded_base(n, base_length, seed)
    return KaConfig(name, n, *specs, base, secret_length=secret_length,
                    exponent_bound=exponent_bound)


def _centralizer_spec(name: str, committed: BraidWord) -> SubgroupSpec:
    """Peer subgroup from a length-bounded centralizer search of a committed
    element, keeping only short nontrivial elements so runs stay desk-scale,
    and of an element and its inverse only the first found: both generate
    the same subgroup. Never empty: at n >= 8, sigma_5 .. sigma_(n-1) are
    far from sigma_1 .. sigma_3."""
    target = SubgroupSpec("committed", committed.strands, (committed,))
    short: list[BraidWord] = []
    for w in centralizer_search(target, max_length=1):
        if 1 <= len(w) <= 2 and invert(w) not in short:
            short.append(w)
    return SubgroupSpec(name, committed.strands, tuple(short))


# ---------------------------------------------------------------------------
# Shifted-conjugacy authentication scheme.


@dataclasses.dataclass(frozen=True)
class DehornoyKeys:
    """Key material: public braid p, public key p' = s*p, secret s."""

    base: BraidWord  # p
    public_key: BraidWord  # p' = s*p
    secret: BraidWord  # s

    @property
    def strands(self) -> int:
        return self.base.strands


def dehornoy_keygen(
    strands: int,
    secret_length: int,
    base_length: int,
    seed: int,
) -> DehornoyKeys:
    """Sample a key pair; the base and the secret are words in the Artin
    generators of B_strands."""
    rng = random.Random(seed)
    gens = [generator(strands, i) for i in range(1, strands)]
    p = random_word(gens, base_length, rng)
    s = random_word(gens, secret_length, rng)
    p_pub = rewrite(shifted_conjugate(s, p))
    return DehornoyKeys(p, p_pub, s)


def dehornoy_commit(
    keys: DehornoyKeys, r: BraidWord
) -> tuple[BraidWord, BraidWord]:
    """The commitment pair (x, x') = (r*p, r*p')."""
    x = rewrite(shifted_conjugate(r, keys.base))
    x_prime = rewrite(shifted_conjugate(r, keys.public_key))
    return x, x_prime


def dehornoy_respond(keys: DehornoyKeys, r: BraidWord, challenge: int) -> BraidWord:
    """Challenge 0 reveals r; challenge 1 reveals t = r*s."""
    if challenge not in (0, 1):
        raise ProtocolError(f"challenge must be 0 or 1, got {challenge}")
    if challenge == 0:
        return r
    return rewrite(shifted_conjugate(r, keys.secret))


def dehornoy_verify(
    base: BraidWord,
    public_key: BraidWord,
    commitment: tuple[BraidWord, BraidWord],
    challenge: int,
    response: BraidWord,
) -> bool:
    """Verify a commitment/response pair against the public key material.

    Challenge 0 re-derives both commitments from the revealed r. Challenge 1
    uses left self-distributivity: x' = r*(s*p) = (r*s)*(r*p) = t*x.
    """
    x, x_prime = commitment
    if challenge == 0:
        return words_equal(x, shifted_conjugate(response, base)) and words_equal(
            x_prime, shifted_conjugate(response, public_key)
        )
    if challenge == 1:
        return words_equal(x_prime, shifted_conjugate(response, x))
    raise ProtocolError(f"challenge must be 0 or 1, got {challenge}")
