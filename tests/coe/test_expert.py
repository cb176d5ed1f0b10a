"""Expert library."""

import dataclasses
import pickle

import pytest

from repro.coe.expert import (
    ExpertLibrary,
    ExpertProfile,
    build_heterogeneous_library,
    build_samba_coe_library,
)
from repro.models.catalog import CATALOG, LLAMA2_7B, LLAMA2_13B


class TestExpertProfile:
    def test_weight_bytes_come_from_model(self):
        e = ExpertProfile("e0", "code")
        assert e.weight_bytes == LLAMA2_7B.weight_bytes

    def test_copyback_is_the_mutable_fraction(self):
        e = ExpertProfile("e0", "code", mutable_fraction=0.1)
        assert e.copyback_bytes == pytest.approx(0.1 * e.weight_bytes, rel=0.01)

    def test_bad_mutable_fraction_rejected(self):
        with pytest.raises(ValueError):
            ExpertProfile("e0", "code", mutable_fraction=1.5)


class TestSizedOnce:
    """``weight_bytes`` is computed at construction; nothing else about
    the profile may change with it."""

    @pytest.mark.parametrize("model", sorted(CATALOG))
    def test_weight_bytes_match_every_catalog_model(self, model):
        config = CATALOG[model]
        assert ExpertProfile("e", "code", model=config).weight_bytes == (
            config.weight_bytes
        )

    def test_weight_bytes_match_heterogeneous_library(self):
        library = build_heterogeneous_library()
        assert len({e.model for e in library.experts}) == 3
        for expert in library.experts:
            assert expert.weight_bytes == expert.model.weight_bytes

    def test_eq_hash_repr_see_fields_only(self):
        a = ExpertProfile("e0", "code")
        b = ExpertProfile("e0", "code")
        assert a == b and hash(a) == hash(b)
        assert repr(a) == (
            f"ExpertProfile(name='e0', domain='code', model={LLAMA2_7B!r}, "
            "mutable_fraction=0.02)"
        )
        assert a != ExpertProfile("e0", "code", model=LLAMA2_13B)

    def test_replace_resizes(self):
        big = dataclasses.replace(ExpertProfile("e0", "code"), model=LLAMA2_13B)
        assert big.weight_bytes == LLAMA2_13B.weight_bytes
        assert big == ExpertProfile("e0", "code", model=LLAMA2_13B)

    def test_pickle_round_trip(self):
        expert = ExpertProfile("e0", "code", model=LLAMA2_13B)
        clone = pickle.loads(pickle.dumps(expert))
        assert clone == expert and hash(clone) == hash(expert)
        assert clone.weight_bytes == LLAMA2_13B.weight_bytes

    def test_still_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExpertProfile("e0", "code").name = "e1"


class TestSambaCoELibrary:
    def test_150_experts_cross_a_trillion_params(self):
        lib = build_samba_coe_library(150)
        assert len(lib) == 150
        assert lib.total_params > 1e12  # the paper's headline

    def test_domains_are_covered(self):
        lib = build_samba_coe_library(20)
        assert len(lib.domains) == 10

    def test_lookup_by_name_and_domain(self):
        lib = build_samba_coe_library(10)
        expert = lib.experts[0]
        assert lib[expert.name] is expert
        assert expert in lib.for_domain(expert.domain)

    def test_unknown_lookups_raise(self):
        lib = build_samba_coe_library(5)
        with pytest.raises(KeyError):
            lib["ghost"]
        with pytest.raises(KeyError):
            lib.for_domain("astrology")

    def test_duplicate_names_rejected(self):
        e = ExpertProfile("dup", "code")
        with pytest.raises(ValueError):
            ExpertLibrary(experts=[e, ExpertProfile("dup", "math")])

    def test_zero_experts_rejected(self):
        with pytest.raises(ValueError):
            build_samba_coe_library(0)


class TestLibraryAdd:
    def test_add_keeps_indexes_coherent(self):
        lib = build_samba_coe_library(5)
        extra = ExpertProfile("replica", "code")
        lib.add(extra)
        assert len(lib) == 6
        assert "replica" in lib
        assert lib["replica"] is extra
        assert extra in lib.for_domain("code")

    def test_add_rejects_duplicate_name(self):
        lib = build_samba_coe_library(5)
        with pytest.raises(ValueError, match="duplicate expert name"):
            lib.add(ExpertProfile(lib.experts[0].name, "math"))

    def test_contains_checks_names(self):
        lib = build_samba_coe_library(3)
        assert lib.experts[0].name in lib
        assert "ghost" not in lib
