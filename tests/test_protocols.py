import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidwork.garside import rewrite, words_equal
from braidwork.protocols import (
    KA_PRESETS,
    MIN_STRANDS,
    KaConfig,
    ProtocolError,
    PublicTranscript,
    dehornoy_commit,
    dehornoy_keygen,
    dehornoy_respond,
    dehornoy_verify,
    ka_run,
    make_preset,
    validate_conditions,
)
from braidwork.subgroups import interval_generators
from braidwork.words import (
    BraidWord,
    compose,
    compose_all,
    generator,
    invert,
    power,
    random_word,
    shifted_conjugate,
)


class TestPresets:
    @pytest.mark.parametrize("name", KA_PRESETS)
    def test_conditions_hold(self, name):
        config = make_preset(name, strands=8, secret_length=4, seed=0)
        assert all(c.passed for c in validate_conditions(config))

    def test_conditions_with_trivial_base(self):
        # ka_run accepts a conditions-2 config whose base is the identity;
        # its trivial Z commutes with everything, so every [.,Z]!=1 row fails.
        config = make_preset("klchkp", strands=6, secret_length=2, base_length=0)
        ka_run(config, seed=0)
        rows = {c.name: c.passed for c in validate_conditions(config)}
        assert rows["[L_A,L_B]=1"] and rows["[R_A,R_B]=1"]
        assert [passed for name, passed in rows.items() if ",Z]" in name] == [False] * 4

    def test_unknown_preset(self):
        with pytest.raises(ProtocolError):
            make_preset("rsa")

    def test_strand_minimums(self):
        with pytest.raises(ProtocolError):
            make_preset("generalized", strands=6)
        with pytest.raises(ProtocolError):
            make_preset("klchkp", strands=4)
        make_preset("klchkp", strands=5)

    @pytest.mark.parametrize("name", KA_PRESETS)
    def test_strand_minimums_come_from_the_table(self, name):
        k = MIN_STRANDS[name]
        assert make_preset(name, strands=k, secret_length=2).strands == k
        with pytest.raises(ProtocolError, match=f"{name} preset needs at least {k} strands"):
            make_preset(name, strands=k - 1)

    @pytest.mark.parametrize("name", KA_PRESETS)
    def test_preset_fixes_mode_and_shape(self, name):
        config = make_preset(name, strands=8, secret_length=2)
        fields = {f.name for f in dataclasses.fields(KaConfig)}
        assert len(fields) == 10
        assert not fields & {"condition_mode", "conjugate_secrets", "stickel_pair"}
        assert config.condition_mode == ("conditions-3" if name == "stickel" else "conditions-2")
        assert config.conjugate_secrets is (name == "klchkp")
        if name == "stickel":
            assert config.stickel_pair == (BraidWord(8, (1, 2)), BraidWord(8, (2, 3)))
        else:
            assert config.stickel_pair is None

    @pytest.mark.parametrize("change, message", [
        ({"preset": "rsa"}, "unknown preset 'rsa'"),
        ({"strands": 4}, "klchkp preset needs at least 5 strands"),
        ({"strands": 7}, "left_a is on 6 strands, not the config's 7"),
        ({"secret_length": -1}, "secret length -1 is negative"),
        ({"exponent_bound": -1}, "exponent_bound -1 is outside 0..256"),
        ({"exponent_bound": 257}, "exponent_bound 257 is outside 0..256"),
    ])
    def test_every_built_config_is_checked(self, change, message):
        config = make_preset("klchkp", strands=6, secret_length=2)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(config, **change)

    def test_preset_exponent_bound_is_checked(self):
        with pytest.raises(ProtocolError, match="exponent_bound -1 is outside 0..256"):
            make_preset("stickel", 6, exponent_bound=-1)
        assert make_preset("stickel", 6, exponent_bound=256).exponent_bound == 256

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_stickel_shape_is_checked(self, side):
        stickel = make_preset("stickel", strands=6)
        two = interval_generators(6, 1, 2)
        with pytest.raises(ProtocolError, match=f"needs {side}_b = {side}_a"):
            dataclasses.replace(stickel, **{f"{side}_b": two})
        with pytest.raises(ProtocolError, match="one generator each"):
            dataclasses.replace(stickel, **{f"{side}_a": two, f"{side}_b": two})

    def test_config_record_roundtrip(self):
        for name in KA_PRESETS:
            config = make_preset(name, strands=8, secret_length=3, seed=1)
            assert KaConfig.from_record(config.to_record()) == config

    def test_conditions3_requires_trivial_base(self):
        stickel = make_preset("stickel", strands=8)
        with pytest.raises(ProtocolError):
            KaConfig(
                **{
                    **{
                        f.name: getattr(stickel, f.name)
                        for f in stickel.__dataclass_fields__.values()
                    },
                    "base": generator(8, 1),
                }
            )


class TestKaRun:
    @pytest.mark.parametrize("name", KA_PRESETS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parties_agree(self, name, seed):
        config = make_preset(name, strands=8, secret_length=4, seed=seed)
        run = ka_run(config, seed=seed)
        s = run.secret
        z = config.base
        key_a = compose_all([s.a1, run.public.token_b, s.a2])
        key_b = compose_all([s.b1, run.public.token_a, s.b2])
        assert words_equal(key_a, s.kappa)
        assert words_equal(key_b, s.kappa)
        assert words_equal(run.public.token_a, compose_all([s.a1, z, s.a2]))

    @pytest.mark.parametrize("name", KA_PRESETS)
    @pytest.mark.parametrize("at_minimum", [True, False], ids=["min-strands", "10-strands"])
    @pytest.mark.parametrize("positive_only", [False, True], ids=["inverses", "positive"])
    def test_matches_the_word_path(self, name, at_minimum, positive_only):
        # The word path: compose each value as a word and normalise it with
        # rewrite. Normal forms are unique, so it spells the same letters as
        # the normal-form products of ka_run.
        strands = MIN_STRANDS[name] if at_minimum else 10
        for seed in range(5):
            config = dataclasses.replace(
                make_preset(name, strands=strands, seed=seed), positive_only=positive_only
            )
            run = ka_run(config, seed=seed)
            s, z = run.secret, config.base
            token_a = rewrite(compose_all([s.a1, z, s.a2]))
            token_b = rewrite(compose_all([s.b1, z, s.b2]))
            assert run.public.token_a == token_a
            assert run.public.token_b == token_b
            assert s.kappa == rewrite(compose_all([s.a1, token_b, s.a2]))
            assert words_equal(s.kappa, compose_all([s.b1, token_a, s.b2]))

    def test_failed_commutation_condition_raises(self):
        config = dataclasses.replace(
            make_preset("klchkp", strands=9), left_b=interval_generators(9, 4, 8)
        )
        with pytest.raises(ProtocolError, match=r"commutation conditions failed: \[L_A,L_B\]=1$"):
            ka_run(config, seed=0)

    def test_conjugacy_shape(self):
        config = make_preset("klchkp", strands=6, secret_length=3)
        run = ka_run(config, seed=5)
        assert words_equal(run.secret.a2, invert(run.secret.a1))
        assert words_equal(run.secret.b2, invert(run.secret.b1))

    def test_stickel_exponents_recorded(self):
        config = make_preset("stickel", strands=8, exponent_bound=4)
        run = ka_run(config, seed=3)
        a, b = config.stickel_pair
        r, s = len(run.secret.a1) // len(a), len(run.secret.a2) // len(b)
        t, u = len(run.secret.b1) // len(a), len(run.secret.b2) // len(b)
        assert run.secret.a1 == power(a, r) and run.secret.a2 == power(b, s)
        assert run.secret.b1 == power(a, t) and run.secret.b2 == power(b, u)
        assert all(0 <= e <= 4 for e in (r, s, t, u))
        assert words_equal(run.public.token_a, compose(power(a, r), power(b, s)))
        assert words_equal(run.public.token_b, compose(power(a, t), power(b, u)))

    def test_deterministic(self):
        config = make_preset("klchkp", strands=6, secret_length=3)
        assert ka_run(config, seed=7).public == ka_run(config, seed=7).public

    def test_positive_only_secrets(self):
        config = dataclasses.replace(
            make_preset("klchkp", strands=6, secret_length=4), positive_only=True
        )
        run = ka_run(config, seed=2)
        assert all(x > 0 for x in run.secret.a1.letters)

    def test_public_transcript_roundtrip(self):
        run = ka_run(make_preset("cklhc", strands=6, secret_length=3), seed=0)
        record = run.public.to_record()
        assert set(record) == {"config", "K_A", "K_B"}
        assert PublicTranscript.from_record(record) == run.public


class TestDehornoyScheme:
    def keys(self, seed=0):
        return dehornoy_keygen(strands=4, secret_length=3, base_length=3, seed=seed)

    def nonce(self, seed=0):
        gens = [generator(4, i) for i in range(1, 4)]
        return random_word(gens, 3, random.Random(f"nonce:{seed}"))

    def test_public_key_shape(self):
        keys = self.keys()
        assert words_equal(
            keys.public_key, shifted_conjugate(keys.secret, keys.base)
        )

    @pytest.mark.parametrize("challenge", [0, 1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completeness(self, challenge, seed):
        keys = self.keys(seed)
        r = self.nonce(seed)
        commitment = dehornoy_commit(keys, r)
        response = dehornoy_respond(keys, r, challenge)
        assert dehornoy_verify(
            keys.base, keys.public_key, commitment, challenge, response
        )

    def test_wrong_response_rejected(self):
        keys = self.keys()
        r = self.nonce()
        commitment = dehornoy_commit(keys, r)
        bogus = compose(r, generator(4, 1))
        assert not dehornoy_verify(keys.base, keys.public_key, commitment, 0, bogus)

    def test_bad_challenge(self):
        keys = self.keys()
        r = self.nonce()
        with pytest.raises(ProtocolError, match=r"^challenge must be 0 or 1, got 2$"):
            dehornoy_respond(keys, r, challenge=2)
        commitment = dehornoy_commit(keys, r)
        with pytest.raises(ProtocolError, match=r"^challenge must be 0 or 1, got 2$"):
            dehornoy_verify(keys.base, keys.public_key, commitment, 2, r)
