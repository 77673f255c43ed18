"""Unit tests for the v2 request/response surface (repro.serve.requests)."""

import math

import pytest

from repro.errors import ValidationError
from repro.kpm import KPMConfig
from repro.lattice import chain, tight_binding_hamiltonian
from repro.serve import (
    REQUEST_API_VERSION,
    RESPONSE_OUTCOMES,
    DoSRequest,
    GreenRequest,
    LDoSRequest,
    SpectralRequest,
    SpectralResponse,
)

H = tight_binding_hamiltonian(chain(8))


class TestRequestVersioning:
    def test_api_version_is_two(self):
        assert REQUEST_API_VERSION == 2
        assert SpectralRequest.api_version == 2
        assert DoSRequest(H).api_version == 2

    def test_all_kinds_subclass_the_versioned_base(self):
        assert isinstance(DoSRequest(H), SpectralRequest)
        assert isinstance(LDoSRequest(H, site=0), SpectralRequest)
        assert isinstance(GreenRequest(H, energies=(0.0,)), SpectralRequest)


class TestTenancyFields:
    def test_v1_defaults_preserved(self):
        request = DoSRequest(H)
        assert request.tenant == "default"
        assert request.deadline is None
        assert request.priority == 0
        assert request.effective_deadline == math.inf

    def test_v2_fields_round_trip(self):
        request = LDoSRequest(
            H, site=3, tenant="acme", deadline=12.5, priority=2
        )
        assert request.tenant == "acme"
        assert request.deadline == 12.5
        assert request.effective_deadline == 12.5
        assert request.priority == 2

    def test_deadline_coerced_to_float(self):
        assert DoSRequest(H, deadline=5).deadline == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenant": ""},
            {"tenant": 7},
            {"deadline": -1.0},
            {"deadline": math.inf},
            {"deadline": "soon"},
            {"priority": 1.5},
            {"priority": True},
            {"config": "not-a-config"},
            {"tag": 3},
        ],
    )
    def test_malformed_fields_raise(self, kwargs):
        defaults = {"config": KPMConfig()}
        defaults.update(kwargs)
        with pytest.raises(ValidationError):
            DoSRequest(H, **defaults)

    def test_validation_shared_across_kinds(self):
        with pytest.raises(ValidationError):
            LDoSRequest(H, site=0, tenant="")
        with pytest.raises(ValidationError):
            GreenRequest(H, energies=(0.0,), deadline=-2.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_green_rejects_non_finite_energy(self, energy):
        with pytest.raises(ValidationError, match="finite"):
            GreenRequest(H, energies=(0.5, energy))


class TestResponseOutcomes:
    def test_taxonomy(self):
        assert RESPONSE_OUTCOMES == ("served", "degraded", "rejected", "cancelled")

    def test_invalid_outcome_raises(self):
        with pytest.raises(ValidationError):
            SpectralResponse(
                kind="dos",
                tag="",
                energies=None,
                values=None,
                moments=None,
                rescaling=None,
                config=KPMConfig(),
                source="gateway",
                engine="",
                batch_id=-1,
                modeled_seconds=0.0,
                outcome="exploded",
            )

    def test_unserved_echoes_request_identity(self):
        request = DoSRequest(H, tag="t0", tenant="acme", deadline=3.0)
        response = SpectralResponse.unserved(
            request, outcome="rejected", reason="admission:rate", source="gateway"
        )
        assert response.outcome == "rejected"
        assert response.reason == "admission:rate"
        assert response.kind == "dos"
        assert response.tag == "t0"
        assert response.tenant == "acme"
        assert response.deadline == 3.0
        assert response.values is None and response.moments is None
        assert response.batch_id == -1
        assert not response.answered

    def test_unserved_rejects_answered_outcomes(self):
        request = DoSRequest(H)
        for outcome in ("served", "degraded"):
            with pytest.raises(ValidationError):
                SpectralResponse.unserved(request, outcome=outcome, reason="", source="gateway")
        with pytest.raises(ValidationError):
            SpectralResponse.unserved("not-a-request", outcome="rejected", reason="", source="gateway")

    def test_answered_property(self):
        request = DoSRequest(H)
        cancelled = SpectralResponse.unserved(
            request, outcome="cancelled", reason="withdrawn", source="gateway"
        )
        assert not cancelled.answered
        served = SpectralResponse(
            kind="dos",
            tag="",
            energies=None,
            values=None,
            moments=None,
            rescaling=None,
            config=KPMConfig(),
            source="computed",
            engine="numpy",
            batch_id=0,
            modeled_seconds=0.0,
        )
        assert served.answered and served.outcome == "served"
