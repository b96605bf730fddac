"""Unit tests for the congestion-tree CAMs."""

import pytest

from repro.core.cam import CamError, CamLine, InputCam, OutputCam


class TestInputCam:
    def test_allocate_and_lookup(self):
        cam = InputCam(2)
        line = cam.allocate(dest=4, root=True, now=0.0)
        assert line is not None
        assert line.root and line.cfq_index == 0
        assert cam.lookup(4) is line
        assert cam.lookup(5) is None

    def test_capacity_exhaustion_counts_failures(self):
        cam = InputCam(2)
        assert cam.allocate(1, False, 0.0) is not None
        assert cam.allocate(2, False, 0.0) is not None
        assert cam.full
        assert cam.allocate(3, False, 0.0) is None
        assert cam.alloc_failures == 1
        assert cam.allocations == 2

    def test_free_recycles_slot(self):
        cam = InputCam(1)
        line = cam.allocate(1, False, 0.0)
        cam.free(line)
        assert not cam.full
        again = cam.allocate(2, False, 1.0)
        assert again is not None and again.cfq_index == 0

    def test_double_allocate_same_dest_raises(self):
        cam = InputCam(2)
        cam.allocate(1, False, 0.0)
        with pytest.raises(CamError):
            cam.allocate(1, True, 0.0)

    def test_double_free_raises(self):
        cam = InputCam(1)
        line = cam.allocate(1, False, 0.0)
        cam.free(line)
        with pytest.raises(CamError):
            cam.free(line)

    def test_lines_lists_only_allocated(self):
        cam = InputCam(3)
        a = cam.allocate(1, False, 0.0)
        b = cam.allocate(2, False, 0.0)
        cam.free(a)
        assert cam.lines() == [b]
        assert cam.line_at(0) is None
        assert cam.line_at(1) is b

    def test_lines_survives_freeing_every_line_mid_iteration(self):
        # what the isolation state machine does: deallocate while it
        # walks the lines (free replaces the list, it never edits it)
        cam = InputCam(4)
        made = [cam.allocate(d, False, 0.0) for d in (9, 3, 7)]
        walked = []
        for line in cam.lines():
            walked.append(line)
            cam.free(line)
            cam.audit()
        assert walked == made  # CFQ order, none skipped
        assert cam.lines() == [] and not cam.full
        assert cam.allocate(5, True, 1.0).cfq_index == 0
        cam.audit()

    def test_lines_follow_cfq_order_not_allocation_order(self):
        cam = InputCam(3)
        a, b, c = (cam.allocate(d, False, 0.0) for d in (1, 2, 3))
        cam.free(a)
        d = cam.allocate(4, False, 0.0)  # reuses CFQ 0
        assert cam.lines() == [d, b, c]
        assert cam.full

    def test_zero_line_cam_is_always_full(self):
        cam = InputCam(0)
        assert cam.full and cam.lines() == []
        assert cam.allocate(1, True, 0.0) is None
        assert cam.alloc_failures == 1
        cam.audit()

    def test_audit_catches_a_stale_line_list(self):
        cam = InputCam(2)
        cam.allocate(1, False, 0.0)
        cam.lines().clear()  # callers must not do this
        with pytest.raises(CamError):
            cam.audit()

    def test_fresh_line_state(self):
        line = CamLine(dest=9, cfq_index=1, root=False, now=5.0)
        assert not line.stopped
        assert not line.stop_sent
        assert not line.propagated
        assert not line.orphaned
        assert not line.hot
        assert line.allocated_at == 5.0


class TestOutputCam:
    def test_allocate_is_idempotent(self):
        cam = OutputCam(2)
        a = cam.allocate(7)
        assert cam.allocate(7) is a
        assert cam.destinations() == [7]

    def test_capacity(self):
        cam = OutputCam(1)
        assert cam.allocate(1) is not None
        assert cam.allocate(2) is None
        assert cam.alloc_failures == 1

    def test_free(self):
        cam = OutputCam(2)
        cam.allocate(1)
        cam.free(1)
        assert cam.lookup(1) is None
        with pytest.raises(CamError):
            cam.free(1)
