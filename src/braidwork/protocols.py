"""
Honest-party implementations of the generalized key agreement and of the
shifted-conjugacy authentication scheme, with presets.

The key agreement works over four subgroup specs L_A, R_A, L_B, R_B and a
public base element z. Alice samples (a1, a2) from (L_A, R_A) and
publishes K_A = a1 z a2; Bob does the same on his side; the shared key is
kappa = a1 K_B a2 = b1 K_A b2, which agree exactly when the cross-party
commutation conditions hold. Public tokens are re-expanded from normal
form before exposure, so an attacker never sees the literal letters the
secrets were typed with.

Presets: "generalized" (decomposition with all commutation conditions of
the z != e mode), "klchkp" (conjugacy shape, a2 = a1^-1), "cklhc"
(two-sided decomposition over disjoint intervals), "stickel" (cyclic
subgroups of two fixed non-commuting words, z = e), "shpilrain-central"
(peer subgroups published from a centralizer search of committed
elements), and "dehornoy" for the authentication scheme.
"""

from __future__ import annotations

import dataclasses
import random

from .garside import rewrite, words_equal
from .subgroups import (
    SubgroupSpec,
    centralizer_search,
    elements_commute,
    interval_generators,
    noncommuting_witness,
    sets_commute,
)
from .words import (
    BraidWord,
    compose,
    expect_list,
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

KA_PRESETS = ("generalized", "klchkp", "cklhc", "stickel", "shpilrain-central")


class ProtocolError(ValueError):
    """Raised for invalid configurations or failed condition checks."""


@dataclasses.dataclass(frozen=True)
class KaConfig:
    """Public parameters of one key-agreement setup."""

    preset: str
    strands: int
    left_a: SubgroupSpec
    right_a: SubgroupSpec
    left_b: SubgroupSpec
    right_b: SubgroupSpec
    base: BraidWord  # the public element z
    condition_mode: str  # "conditions-2" | "conditions-3"
    secret_length: int = 8
    positive_only: bool = False
    conjugate_secrets: bool = False  # a2 = a1^-1 and b2 = b1^-1 (conjugacy shape)
    stickel_pair: tuple[BraidWord, BraidWord] | None = None
    exponent_bound: int = 5

    def __post_init__(self):
        if self.condition_mode not in ("conditions-2", "conditions-3"):
            raise ProtocolError(f"unknown condition mode {self.condition_mode!r}")
        if self.condition_mode == "conditions-3" and len(self.base) != 0:
            raise ProtocolError("conditions-3 requires the base element z = e")
        if self.preset == "stickel" and self.stickel_pair is None:
            raise ProtocolError("stickel preset needs its public word pair")

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
            "stickel_pair": (
                [w.to_record() for w in self.stickel_pair]
                if self.stickel_pair
                else None
            ),
            "exponent_bound": self.exponent_bound,
        }

    @staticmethod
    def from_record(record: dict) -> KaConfig:
        expect_object(record, "a protocol config record")
        pair = record.get("stickel_pair")
        return KaConfig(
            preset=expect_type(record["preset"], str, "preset"),
            strands=expect_strands(expect_type(record["n"], int, "n")),
            left_a=SubgroupSpec.from_record(record["left_a"]),
            right_a=SubgroupSpec.from_record(record["right_a"]),
            left_b=SubgroupSpec.from_record(record["left_b"]),
            right_b=SubgroupSpec.from_record(record["right_b"]),
            base=BraidWord.from_record(record["z"]),
            condition_mode=expect_type(record["condition_mode"], str, "condition_mode"),
            secret_length=expect_secret_length(
                expect_type(record["secret_length"], int, "secret_length")
            ),
            positive_only=expect_type(record["positive_only"], bool, "positive_only"),
            conjugate_secrets=expect_type(
                record["conjugate_secrets"], bool, "conjugate_secrets"
            ),
            stickel_pair=(
                tuple(BraidWord.from_record(w) for w in expect_list(pair, "stickel_pair"))
                if pair
                else None
            ),
            exponent_bound=expect_type(record["exponent_bound"], int, "exponent_bound"),
        )


@dataclasses.dataclass(frozen=True)
class ConditionCheck:
    name: str
    requires_commuting: bool  # True for "=1" conditions, False for "!=1"
    passed: bool
    witness: tuple[BraidWord, BraidWord] | None = None


@dataclasses.dataclass(frozen=True)
class ConditionReport:
    checks: tuple[ConditionCheck, ...]


def _commuting_checks(config: KaConfig) -> list[ConditionCheck]:
    """The two '=1' conditions that key agreement needs."""
    return [
        ConditionCheck("[L_A,L_B]=1", True, sets_commute(config.left_a, config.left_b)),
        ConditionCheck("[R_A,R_B]=1", True, sets_commute(config.right_a, config.right_b)),
    ]


def validate_conditions(config: KaConfig) -> ConditionReport:
    """Check the commutation conditions of the configured mode, with witnesses."""
    la, ra, lb, rb = config.left_a, config.right_a, config.left_b, config.right_b
    z_spec = SubgroupSpec("Z", config.strands, (config.base,)) if len(config.base) else None

    checks = _commuting_checks(config)

    def noncommuting(name: str, a: SubgroupSpec, b: SubgroupSpec) -> None:
        witness = noncommuting_witness(a, b)
        checks.append(ConditionCheck(name, False, witness is not None, witness))

    if config.condition_mode == "conditions-2":
        assert z_spec is not None
        noncommuting("[L_B,Z]!=1", lb, z_spec)
        noncommuting("[L_A,Z]!=1", la, z_spec)
        noncommuting("[R_B,Z]!=1", rb, z_spec)
        noncommuting("[R_A,Z]!=1", ra, z_spec)
        noncommuting("[L_A,R_A]!=1", la, ra)
        noncommuting("[L_B,R_B]!=1", lb, rb)
    else:
        noncommuting("[L_A,R_A]!=1", la, ra)
        noncommuting("[L_B,R_B]!=1", lb, rb)
        noncommuting("[L_B,R_A]!=1", lb, ra)
        noncommuting("[L_A,R_B]!=1", la, rb)
    return ConditionReport(tuple(checks))


@dataclasses.dataclass(frozen=True)
class PublicTranscript:
    """Attacker-visible half of one protocol run."""

    config: KaConfig
    token_a: BraidWord  # K_A, normal-form expanded
    token_b: BraidWord  # K_B, normal-form expanded

    def to_record(self) -> dict:
        return {
            "config": self.config.to_record(),
            "K_A": self.token_a.to_record(),
            "K_B": self.token_b.to_record(),
        }

    @staticmethod
    def from_record(record: dict) -> PublicTranscript:
        expect_object(record, "a public transcript record")
        return PublicTranscript(
            KaConfig.from_record(record["config"]),
            BraidWord.from_record(record["K_A"]),
            BraidWord.from_record(record["K_B"]),
        )


@dataclasses.dataclass(frozen=True)
class SecretTranscript:
    """Harness-only half: the parties' secrets and the true shared key."""

    a1: BraidWord
    a2: BraidWord
    b1: BraidWord
    b2: BraidWord
    kappa: BraidWord
    exponents: tuple[int, int, int, int] | None = None  # stickel (r, s, t, u)

    def to_record(self) -> dict:
        return {
            "a1": self.a1.to_record(),
            "a2": self.a2.to_record(),
            "b1": self.b1.to_record(),
            "b2": self.b2.to_record(),
            "kappa": self.kappa.to_record(),
            "exponents": list(self.exponents) if self.exponents else None,
        }

    @staticmethod
    def from_record(record: dict) -> SecretTranscript:
        expect_object(record, "a secret transcript record")
        exps = record.get("exponents")
        if exps is not None:
            exps = tuple(
                expect_type(e, int, "an exponent") for e in expect_list(exps, "exponents")
            )
            if len(exps) != 4:
                raise ValueError("exponents must be null or four ints (r, s, t, u)")
        return SecretTranscript(
            BraidWord.from_record(record["a1"]),
            BraidWord.from_record(record["a2"]),
            BraidWord.from_record(record["b1"]),
            BraidWord.from_record(record["b2"]),
            BraidWord.from_record(record["kappa"]),
            exps,
        )


@dataclasses.dataclass(frozen=True)
class ProtocolTranscript:
    public: PublicTranscript
    secret: SecretTranscript


def ka_run(config: KaConfig, seed: int) -> ProtocolTranscript:
    """One seeded protocol run; asserts both parties compute the same key.
    Only the '=1' conditions are enforced; `validate_conditions` reports the
    rest."""
    failed = [c.name for c in _commuting_checks(config) if not c.passed]
    if failed:
        raise ProtocolError(f"commutation conditions failed: {', '.join(failed)}")

    rng = random.Random(seed)
    z = config.base
    inverses = not config.positive_only

    if config.preset == "stickel":
        assert config.stickel_pair is not None
        a, b = config.stickel_pair
        r, s, t, u = (rng.randint(0, config.exponent_bound) for _ in range(4))
        a1, a2 = power(a, r), power(b, s)
        b1, b2 = power(a, t), power(b, u)
        exponents = (r, s, t, u)
    elif config.conjugate_secrets:
        a1 = random_word(config.left_a.generators, config.secret_length, rng, inverses)
        a2 = invert(a1)
        b1 = random_word(config.left_b.generators, config.secret_length, rng, inverses)
        b2 = invert(b1)
        exponents = None
    else:
        a1 = random_word(config.left_a.generators, config.secret_length, rng, inverses)
        a2 = random_word(config.right_a.generators, config.secret_length, rng, inverses)
        b1 = random_word(config.left_b.generators, config.secret_length, rng, inverses)
        b2 = random_word(config.right_b.generators, config.secret_length, rng, inverses)
        exponents = None

    token_a = rewrite(compose(compose(a1, z), a2))
    token_b = rewrite(compose(compose(b1, z), b2))
    kappa_a = compose(compose(a1, token_b), a2)
    kappa_b = compose(compose(b1, token_a), b2)
    if not words_equal(kappa_a, kappa_b):
        raise ProtocolError("parties disagree on the shared key; bad configuration")
    kappa = rewrite(kappa_a)

    public = PublicTranscript(config, token_a, token_b)
    secret = SecretTranscript(a1, a2, b1, b2, kappa, exponents)
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
    """Build the KaConfig for a named preset at desk scale."""
    n = strands
    if base_length is None:
        base_length = secret_length
    if name == "generalized":
        if n < 8:
            raise ProtocolError("generalized preset needs at least 8 strands")
        return KaConfig(
            preset=name,
            strands=n,
            left_a=interval_generators(n, 1, 2),
            right_a=interval_generators(n, 2, 3),
            left_b=interval_generators(n, 5, 6),
            right_b=interval_generators(n, 5, 5),
            base=_seeded_base(n, base_length, seed),
            condition_mode="conditions-2",
            secret_length=secret_length,
        )
    if name in ("klchkp", "cklhc"):
        if n < 5:
            raise ProtocolError(f"{name} preset needs at least 5 strands")
        mid = (n + 1) // 2
        lower = interval_generators(n, 1, mid - 2)
        upper = interval_generators(n, mid, n - 1)
        return KaConfig(
            preset=name,
            strands=n,
            left_a=lower,
            right_a=lower,
            left_b=upper,
            right_b=upper,
            base=_seeded_base(n, base_length, seed),
            condition_mode="conditions-2",
            secret_length=secret_length,
            conjugate_secrets=(name == "klchkp"),
        )
    if name == "stickel":
        if n < 4:
            raise ProtocolError("stickel preset needs at least 4 strands")
        a = BraidWord(n, (1, 2))
        b = BraidWord(n, (2, 3))
        spec_a = SubgroupSpec("<a>", n, (a,))
        spec_b = SubgroupSpec("<b>", n, (b,))
        return KaConfig(
            preset=name,
            strands=n,
            left_a=spec_a,
            right_a=spec_b,
            left_b=spec_a,
            right_b=spec_b,
            base=identity(n),
            condition_mode="conditions-3",
            secret_length=secret_length,
            stickel_pair=(a, b),
            exponent_bound=exponent_bound,
        )
    if name == "shpilrain-central":
        if n < 8:
            raise ProtocolError("shpilrain-central preset needs at least 8 strands")
        rng = random.Random(f"commit:{seed}")
        lower = interval_generators(n, 1, 2)
        upper_src = interval_generators(n, 2, 3)
        while True:
            committed_1 = random_word(lower.generators, 2, rng)
            committed_2 = random_word(upper_src.generators, 2, rng)
            if len(committed_1) and len(committed_2) and not elements_commute(
                committed_1, committed_2
            ):
                break
        ambient = interval_generators(n, 1, n - 1)
        peer_left = _centralizer_spec("L_B", committed_1, ambient)
        peer_right = _centralizer_spec("R_B", committed_2, ambient)
        return KaConfig(
            preset=name,
            strands=n,
            left_a=SubgroupSpec("<a1>", n, (committed_1,)),
            right_a=SubgroupSpec("<a2>", n, (committed_2,)),
            left_b=peer_left,
            right_b=peer_right,
            base=_seeded_base(n, base_length, seed),
            condition_mode="conditions-2",
            secret_length=secret_length,
        )
    raise ProtocolError(f"unknown preset {name!r}")


def _centralizer_spec(
    name: str, committed: BraidWord, alphabet: SubgroupSpec
) -> SubgroupSpec:
    """Peer subgroup from a budgeted centralizer search of a committed element,
    keeping only short nontrivial elements so runs stay desk-scale."""
    target = SubgroupSpec("committed", committed.strands, (committed,))
    short = [
        w for w in centralizer_search(target, max_length=1, alphabet=alphabet)
        if 1 <= len(w) <= 2
    ]
    if not short:
        raise ProtocolError(f"centralizer search found no usable generators for {name}")
    return SubgroupSpec(name, committed.strands, tuple(short))


# ---------------------------------------------------------------------------
# Shifted-conjugacy authentication scheme.


@dataclasses.dataclass(frozen=True)
class DehornoyKeys:
    """Key material: public braid p, public key p' = s*p, secret s."""

    strands: int
    base: BraidWord  # p
    public_key: BraidWord  # p' = s*p
    secret: BraidWord  # s

    def public_record(self) -> dict:
        return {
            "n": self.strands,
            "p": self.base.to_record(),
            "p_pub": self.public_key.to_record(),
        }


def dehornoy_keygen(
    strands: int,
    secret_length: int,
    base_length: int,
    seed: int,
    secret_spec: SubgroupSpec | None = None,
) -> DehornoyKeys:
    """Sample a key pair; the secret comes from secret_spec when given."""
    rng = random.Random(seed)
    gens = [generator(strands, i) for i in range(1, strands)]
    p = random_word(gens, base_length, rng)
    alphabet = secret_spec.generators if secret_spec else gens
    s = random_word(alphabet, secret_length, rng)
    p_pub = rewrite(shifted_conjugate(s, p))
    return DehornoyKeys(strands, p, p_pub, s)


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
