"""Helly numbers, bound reports, and the random-instance harness."""

import collections

import pytest
from helpers import family_helly, family_region, small_family

import multinerve.families
import multinerve.leray
import multinerve.verify
from multinerve import (PreconditionError, SimplicialComplex, box, box_family,
                        helly_number, instance_id, random_family,
                        subcomplex_family, verify_helly_bound,
                        verify_multinerve_theorem, verify_projection_bound)
from multinerve.fixtures import (blown_tetrahedron_family,
                                 circle_member_family, corridor_box_family,
                                 interval_union_h3_family,
                                 tight_interval_family,
                                 two_arc_circle_family)
from multinerve.leray import CapExceeded
from multinerve.verify import Check, HellyResult


class TestHellyNumber:
    def test_interval_instance(self):
        res = helly_number(tight_interval_family())
        assert res.h == 2
        assert res.witness == (0, 2)

    def test_family_with_empty_member(self):
        F = box_family(1, [[box((0, 1))], []])
        assert helly_number(F).h == 1

    def test_corridor_boxes(self):
        assert helly_number(corridor_box_family()).h == 3

    def test_blown_tetrahedron(self):
        assert helly_number(blown_tetrahedron_family()).h == 4

    def test_nonempty_intersection_rejected(self):
        F = box_family(1, [[box((0, 2))], [box((1, 3))]])
        with pytest.raises(PreconditionError, match="non-empty"):
            helly_number(F)

    def test_cap(self):
        F = box_family(1, [[box((i, i + 1))] for i in range(0, 40, 2)])
        with pytest.raises(CapExceeded):
            helly_number(F)

    def test_all_members_empty(self):
        # the empty subfamily intersects by convention, so each empty
        # member is a minimal empty subfamily on its own
        F = random_family("box", 3, 1, boxes_per_member=0)
        assert helly_number(F) == HellyResult(1, (0,))

    @pytest.mark.parametrize("backend", ["box", "subcomplex"])
    def test_agrees_with_brute_force(self, backend):
        checked = 0
        for seed in range(40):
            F = small_family(seed, backend)
            if family_region(F, tuple(F.indices)):
                continue
            checked += 1
            res = helly_number(F)
            assert (res.h, res.witness) == family_helly(F)
        assert checked >= 15


class TestMultinerveTheorem:
    def test_two_arc_instance(self):
        rep = verify_multinerve_theorem(two_arc_circle_family(), 0)
        assert rep.all_pass
        assert rep.quantities["betti_multinerve"] == "1:1"
        assert rep.quantities["betti_union"] == "1:1"

    def test_convex_family(self):
        F = box_family(2, [[box((0, 2), (0, 2))], [box((1, 3), (1, 3))]])
        assert verify_multinerve_theorem(F, 0).all_pass

    def test_circle_member_at_slack_3(self):
        rep = verify_multinerve_theorem(circle_member_family(), 3)
        assert rep.all_pass
        # below the slack the two sides genuinely differ
        assert rep.quantities["betti_multinerve"] == "0"
        assert rep.quantities["betti_union"] == "1:1"

    def test_slack_precondition_failure_names_subfamily(self):
        with pytest.raises(PreconditionError, match=r"\(0,\).*dimension 1"):
            verify_multinerve_theorem(circle_member_family(), 0)


class TestProjectionBound:
    def test_two_arc_instance(self):
        rep = verify_projection_bound(two_arc_circle_family(), t=1, s=0)
        assert rep.all_pass
        q = rep.quantities
        assert q["r"] == 2 and q["J_multinerve"] == 2 and q["L_nerve"] == 0
        assert rep.check("projection_bound").rhs == 5

    def test_convex_family_reduces_to_l_le_j(self):
        F = box_family(2, [[box((0, 2), (0, 2))], [box((1, 3), (1, 3))]])
        rep = verify_projection_bound(F, t=1, s=0)
        assert rep.all_pass and rep.quantities["r"] == 1

    def test_helly_leray_included_when_intersection_empty(self):
        rep = verify_projection_bound(corridor_box_family(), t=1)
        assert rep.all_pass
        assert rep.check("helly_leray").passed

    def test_l_and_j_run_once_per_distinct_poset(self, monkeypatch):
        # J = L, so one exact L walk per distinct poset gives both, and no
        # j_index walk is run
        calls = collections.Counter()
        for module, name in ((multinerve.verify, "leray_number"),
                             (multinerve.leray, "_enumerate")):
            def spy(*args, _name=name, _real=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        # R_1 is the multinerve, a double edge here, not the nerve's edge
        rep = verify_projection_bound(two_arc_circle_family(), t=1)
        assert calls == {"leray_number": 2, "_enumerate": 2}
        assert rep.quantities["J_reduced"] == rep.quantities["J_multinerve"]

    def test_random_instances_all_pass(self):
        for seed in range(12):
            for backend in ("box", "subcomplex"):
                F = random_family(backend, 3, seed, ambient_dim=1, grid=3)
                for t in (1, 2):
                    assert verify_projection_bound(F, t=t).all_pass


class TestHellyBound:
    def test_cap_refuses_before_any_walk(self, monkeypatch):
        # ``mnv gen --backend box --n 40 --ambient-dim 1
        # --boxes-per-member 1 --seed 1``: 40 members, over the cap of 16
        with pytest.raises(CapExceeded) as want:
            helly_number(random_family("box", 40, 1, boxes_per_member=1))
        real, walked = multinerve.families._walk_source, []

        def spy(F):
            walked.append(F)
            return real(F)
        monkeypatch.setattr(multinerve.families, "_walk_source", spy)
        with pytest.raises(CapExceeded) as got:
            verify_helly_bound(random_family("box", 40, 1, boxes_per_member=1))
        assert str(got.value) == str(want.value)
        assert walked == []

    def test_tight_interval_instance(self):
        rep = verify_helly_bound(tight_interval_family(), s=0, t=1)
        assert rep.all_pass
        assert rep.quantities["h"] == 2
        assert rep.quantities["bound"] == 2  # r=1, d_Gamma=1: tight

    def test_interval_union_h3(self):
        rep = verify_helly_bound(interval_union_h3_family(), s=0, t=1)
        assert rep.all_pass
        assert rep.quantities["h"] == 3
        assert rep.quantities["r"] == 2
        assert rep.quantities["bound"] == 4

    def test_nonempty_intersection_rejected(self):
        F = box_family(1, [[box((0, 2))], [box((1, 3))]])
        with pytest.raises(PreconditionError, match="non-empty"):
            verify_helly_bound(F)

    @pytest.mark.parametrize("backend,kw", [
        ("box", {"boxes_per_member": 0}),
        ("subcomplex", {"stars_per_member": 0}),
    ])
    def test_all_members_empty(self, backend, kw):
        # no subfamily intersects, so r = 0; the bound takes r = 1
        F = random_family(backend, 3, 1, **kw)
        rep = verify_helly_bound(F, s=0, t=1)
        assert rep.quantities["r"] == 0 and rep.quantities["h"] == 1
        assert rep.quantities["bound"] == F.gamma_dim + 1
        assert rep.all_pass

    def test_no_intersecting_pair_at_t_2(self):
        F = box_family(1, [[box((0, 1))], [box((2, 3))]])
        rep = verify_helly_bound(F, s=0, t=2)
        assert rep.quantities["r"] == 0 and rep.quantities["h"] == 2
        assert rep.quantities["bound"] == 3
        assert rep.all_pass

    def test_slack_violation_rejected(self):
        T = circle_member_family()
        # add a second, disjoint member so the intersection is empty
        from multinerve import subcomplex_family
        F = subcomplex_family(T.ambient,
                              [[s for s in m.simplices] for m in T.members]
                              + [[]])
        with pytest.raises(PreconditionError, match="slack"):
            verify_helly_bound(F, s=0)


@pytest.mark.parametrize("F", [
    box_family(1, []),
    subcomplex_family(SimplicialComplex([(0, 1)]), []),
], ids=["box", "subcomplex"])
class TestNoMembers:
    """The intersection over the empty subfamily is nonempty by convention,
    so a family without members has no Helly number to compute."""

    def test_helly_number_rejected(self, F):
        with pytest.raises(PreconditionError, match="non-empty"):
            helly_number(F)

    def test_helly_bound_rejected(self, F):
        with pytest.raises(PreconditionError, match="non-empty"):
            verify_helly_bound(F)

    def test_projection_bound_skips_helly(self, F):
        rep = verify_projection_bound(F, t=1)
        assert rep.all_pass
        assert "h" not in rep.quantities
        assert "helly_leray" not in [c.name for c in rep.checks]


class TestReportPlumbing:
    def test_render_format(self):
        rep = verify_helly_bound(tight_interval_family(), s=0, t=1)
        text = rep.render()
        assert text.startswith("report v1\n")
        assert "CHECK helly_bound: 2 <= 2 : PASS" in text
        assert text.rstrip().endswith("result = PASS")

    def test_check_failure_renders_fail(self):
        c = Check("demo", 3, 2)
        assert not c.passed
        assert c.render().endswith("FAIL")

    def test_instance_id_is_stable(self):
        F = tight_interval_family()
        assert instance_id(F) == instance_id(tight_interval_family())
        assert len(instance_id(F)) == 12

    def test_betti_quantities_reproducible(self):
        rep = verify_multinerve_theorem(two_arc_circle_family(), 0)
        rep2 = verify_multinerve_theorem(two_arc_circle_family(), 0)
        assert rep.render() == rep2.render()


class TestRandomFamilyShapes:
    def test_with_ring_produces_slack_3_instances(self):
        # some draws need even more slack (a pair can swallow the whole
        # ring); the harness filters those, here we only need existence
        from multinerve import is_acyclic_with_slack
        found = False
        for seed in range(10):
            F = random_family("subcomplex", 2, seed, grid=3, with_ring=True)
            if not is_acyclic_with_slack(F, 0)[0] and \
                    is_acyclic_with_slack(F, 3)[0]:
                found = True
        assert found

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            random_family("disk", 2, 0)

    def test_bad_n(self):
        with pytest.raises(ValueError, match="at least one"):
            random_family("box", 0, 0)
