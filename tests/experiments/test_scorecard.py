"""Tests for the reproduction scorecard."""

import pytest

from repro.experiments import scorecard
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scorecard import Claim


class TestClaimGrading:
    def test_match(self):
        claim = Claim("x", paper=1.0, measured=1.02, tight=0.05, loose=0.15)
        assert claim.grade == "MATCH"

    def test_close(self):
        claim = Claim("x", paper=1.0, measured=1.10, tight=0.05, loose=0.15)
        assert claim.grade == "CLOSE"

    def test_deviates(self):
        claim = Claim("x", paper=1.0, measured=1.50, tight=0.05, loose=0.15)
        assert claim.grade == "DEVIATES"

    def test_zero_paper_value(self):
        claim = Claim("x", paper=0.0, measured=0.01, tight=0.05, loose=0.15)
        assert claim.relative_error == pytest.approx(0.01)


class TestScorecardEndToEnd:
    @pytest.fixture(scope="class")
    def card(self, shared_runner):
        # Small scale: enough warps for the power results to be
        # representative while staying test-suite fast.
        return scorecard.compute(shared_runner)

    def test_fifteen_claims(self, card):
        assert len(card.claims) == 15

    def test_majority_match(self, card):
        assert card.count("MATCH") >= 10
        assert card.count("DEVIATES") <= 2

    def test_structural_claims_always_match(self, card):
        by_name = {claim.name: claim for claim in card.claims}
        # Table 3 comes from the analytic model: scale-independent.
        assert by_name["compressor power (mW)"].grade == "MATCH"
        assert by_name["decompressor power (mW)"].grade == "MATCH"

    def test_render(self, card):
        text = scorecard.render(card)
        assert "Reproduction scorecard" in text
        assert "MATCH" in text
        assert "headline claims" in text

    def test_identical_under_chunked_streaming(self, card):
        # A prime chunk size splits warps mid-chunk; every claim must
        # grade and render exactly as in the whole-trace run.
        chunked = scorecard.compute(ExperimentRunner(scale="small", chunk_events=997))
        assert scorecard.render(chunked) == scorecard.render(card)
