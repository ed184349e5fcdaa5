"""Unit tests for the per-warp scoreboard."""

import pytest

from repro.errors import TimingError

from tests.reference.sm import Scoreboard


class TestScoreboard:
    def test_raw_hazard_blocks(self):
        sb = Scoreboard()
        sb.reserve(5)
        assert not sb.can_issue((5,), 7)

    def test_waw_hazard_blocks(self):
        sb = Scoreboard()
        sb.reserve(5)
        assert not sb.can_issue((), 5)

    def test_independent_op_issues(self):
        sb = Scoreboard()
        sb.reserve(5)
        assert sb.can_issue((1, 2), 3)

    def test_release_clears(self):
        sb = Scoreboard()
        sb.reserve(5)
        sb.release(5)
        assert sb.can_issue((5,), 5)
        assert sb.pending_count == 0

    def test_store_has_no_destination(self):
        sb = Scoreboard()
        sb.reserve(None)
        assert sb.pending_count == 0
        sb.release(None)  # no-op

    def test_double_release_rejected(self):
        sb = Scoreboard()
        sb.reserve(3)
        sb.release(3)
        with pytest.raises(TimingError):
            sb.release(3)
