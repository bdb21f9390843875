"""Tests for the wall-consistency instances and their solver."""

import itertools
import json
import random

import pytest

from oracles import _solve_exhaustive
from refleq import polarization
from refleq.polarization import (
    PAIR_LABELS,
    PolarizationInstance,
    WALL_NAMES,
    WALL_PHI,
    _gac,
    _qualifying_vars,
    _solve_propagation,
    build_instance,
    check_choice,
    choice_to_json,
    label_weight,
    normalize_label,
    replay_certificate,
    solve,
    solve_table,
)


def uniform_axis(inst, choice, u1="C(1,-1)", u2="C(2,-2)"):
    for p in inst.points:
        if "u1Axis" in inst.pairs_at[p]:
            choice[(p, "u1Axis")] = u1
            choice[(p, "u2Axis")] = u2
    return choice


def face_choice(inst, diag, off):
    choice = {}
    for s, t in inst.points:
        if s == t:
            choice[((s, t), "sum")] = diag
        else:
            choice[((s, t), "difference")] = off
    return uniform_axis(inst, choice)


class TestLabels:
    def test_weights(self):
        assert label_weight("C(1,-1)") == (-2, 0)
        assert label_weight("C(-1,1)") == (2, 0)
        assert label_weight("C(2,-2)") == (0, -2)
        assert label_weight("C(1,2)") == (-1, 1)
        assert label_weight("C(2,1)") == (1, -1)
        assert label_weight("C(1,-2)") == (-1, -1)
        assert label_weight("C(-2,1)") == (1, 1)

    def test_normalization_identifies_reversed_duals(self):
        assert normalize_label("C(2,-1)") == "C(1,-2)"
        assert normalize_label("C(-1,2)") == "C(-2,1)"
        assert normalize_label("C(-2,-1)") == "C(1,2)"
        assert normalize_label("C(1,2)") == "C(1,2)"
        assert normalize_label("C(2,-1)") in PAIR_LABELS["sum"]
        assert normalize_label("C(-1,1)") in PAIR_LABELS["u1Axis"]

    @pytest.mark.parametrize("label", [label for labels in PAIR_LABELS.values() for label in labels])
    def test_each_selectable_label_is_the_normal_form_of_itself_and_its_mirror(self, label):
        i, j = polarization._parse_label(label)
        assert normalize_label(label) == label
        assert normalize_label(f"C({-j},{-i})") == label

    @pytest.mark.parametrize("label", ["C(1,1)", "C(-1,-1)", "C(2,2)", "C(-2,-2)"])
    def test_labels_outside_every_pair_rejected(self, label):
        with pytest.raises(ValueError, match="does not belong to any known pair"):
            normalize_label(label)

    def test_malformed_labels_rejected(self):
        with pytest.raises(ValueError):
            label_weight("C(3,1)")
        with pytest.raises(ValueError):
            normalize_label("D(1,2)")


class TestInstances:
    def test_minus_l2_shape(self):
        inst = build_instance("-", 2)
        assert len(inst.points) == 4
        assert {len(inst.pairs_at[p]) for p in inst.points} == {3}

    def test_plus_l3_shape(self):
        inst = build_instance("+", 3)
        assert len(inst.points) == 9
        assert {len(inst.pairs_at[p]) for p in inst.points} == {1}

    def test_minus_axis_walls_have_full_lines(self):
        inst = build_instance("-", 3)
        for wall in ("u1Zero", "u2Zero"):
            assert sorted(len(c) for c in inst.components[wall]) == [3, 3, 3]

    def test_plus_axis_walls_are_isolated(self):
        inst = build_instance("+", 4)
        for wall in ("u1Zero", "u2Zero"):
            assert [len(c) for c in inst.components[wall]] == [1] * 16

    def test_swap_wall_components(self):
        inst = build_instance("-", 3)
        comps = {c for c in inst.components["u1EqualsU2"] if len(c) == 2}
        assert comps == {((1, 2), (2, 1)), ((1, 3), (3, 1)), ((2, 3), (3, 2))}

    def test_diagonal_wall_component(self):
        inst = build_instance("-", 3)
        assert ((1, 1), (2, 2), (3, 3)) in inst.components["u1PlusU2Zero"]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_instance("x", 2)
        with pytest.raises(ValueError):
            build_instance("-", 1)


class TestCheckChoice:
    def test_alternating_diagonal_witness_holds(self):
        # the diagonal selections must flip between the two diagonal points;
        # the off-diagonal ones follow the row of their first coordinate
        inst = build_instance("-", 2)
        choice = uniform_axis(
            inst,
            {
                ((1, 1), "sum"): "C(1,-2)",
                ((2, 2), "sum"): "C(-2,1)",
                ((1, 2), "difference"): "C(1,2)",
                ((2, 1), "difference"): "C(2,1)",
            },
        )
        assert check_choice(inst, choice)["ok"]

    def test_sigma_identified_labels_accepted(self):
        inst = build_instance("-", 2)
        choice = uniform_axis(
            inst,
            {
                ((1, 1), "sum"): "C(2,-1)",  # same summand as C(1,-2)
                ((2, 2), "sum"): "C(-1,2)",  # same summand as C(-2,1)
                ((1, 2), "difference"): "C(1,2)",
                ((2, 1), "difference"): "C(2,1)",
            },
        )
        assert check_choice(inst, choice)["ok"]

    def test_uniform_diagonal_fails_on_row_wall(self):
        # picking the same diagonal label at both (1,1) and (2,2) cannot be
        # completed: the row components of the u2 = 0 wall see a +1 from the
        # diagonal point and a -1 from the off-diagonal one
        inst = build_instance("-", 2)
        verdict = check_choice(inst, face_choice(inst, "C(-2,1)", "C(1,2)"))
        assert not verdict["ok"]
        assert {v["wall"] for v in verdict["violations"]} == {"u2Zero"}

    def test_no_uniform_diagonal_choice_exists(self):
        inst = build_instance("-", 2)
        for diag in PAIR_LABELS["sum"]:
            for off in PAIR_LABELS["difference"]:
                assert not check_choice(inst, face_choice(inst, diag, off))["ok"]

    def test_attempted_column_first_choice_fails_at_l3(self):
        # start from C(1,-2) at (1,1) with C(2,1) below it, follow the forced
        # row and column selections, and close the remaining off-diagonal
        # slots with either label: the second column always clashes
        inst = build_instance("-", 3)
        base = {
            ((1, 1), "sum"): "C(1,-2)",
            ((2, 1), "difference"): "C(2,1)",
            ((3, 1), "difference"): "C(2,1)",
            ((1, 2), "difference"): "C(1,2)",
            ((1, 3), "difference"): "C(1,2)",
            ((2, 2), "sum"): "C(-2,1)",
            ((3, 3), "sum"): "C(-2,1)",
        }
        walls_seen = set()
        for a, b in itertools.product(PAIR_LABELS["difference"], repeat=2):
            choice = dict(base)
            choice[((2, 3), "difference")] = a
            choice[((3, 2), "difference")] = b
            verdict = check_choice(inst, uniform_axis(inst, choice))
            assert not verdict["ok"]
            walls_seen |= {v["wall"] for v in verdict["violations"]}
        assert walls_seen <= {"u1Zero", "u2Zero"}

    def test_plus_sign_every_choice_works(self):
        inst = build_instance("+", 3)
        slots = [(p, inst.pairs_at[p][0]) for p in inst.points]
        for combo in itertools.product(*(PAIR_LABELS[name] for _, name in slots)):
            choice = dict(zip(slots, combo))
            assert check_choice(inst, choice)["ok"]

    def test_partial_choice_rejected(self):
        inst = build_instance("-", 2)
        choice = uniform_axis(inst, {((1, 1), "sum"): "C(1,-2)"})
        with pytest.raises(ValueError):
            check_choice(inst, choice)

    def test_foreign_label_rejected(self):
        inst = build_instance("-", 2)
        choice = face_choice(inst, "C(1,-2)", "C(1,2)")
        choice[((1, 1), "sum")] = "C(1,-1)"  # an axis label in the sum slot
        with pytest.raises(ValueError):
            check_choice(inst, choice)


class TestSolve:
    def test_minus_l2_sat(self):
        inst = build_instance("-", 2)
        res = solve(inst)
        assert res["verdict"] == "SAT"
        assert res["method"] == "propagation"
        assert check_choice(inst, res["witness"])["ok"]
        # the JSON rows the CLI prints carry the whole witness
        rows = json.loads(json.dumps(choice_to_json(res["witness"])))
        assert {(tuple(r["point"]), r["pair"]): r["selected"] for r in rows} == res["witness"]

    @pytest.mark.parametrize("l", [3, 4, 5, 6])
    def test_minus_unsat_with_replayable_certificate(self, l):
        inst = build_instance("-", l)
        res = solve(inst)
        assert res["verdict"] == "UNSAT"
        assert res["method"] == "propagation"
        assert replay_certificate(inst, res["certificate"])

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_plus_sat(self, l):
        inst = build_instance("+", l)
        res = solve(inst)
        assert res["verdict"] == "SAT"
        assert check_choice(inst, res["witness"])["ok"]

    def test_certificate_shape(self):
        res = solve(build_instance("-", 3))
        kinds = [step["kind"] for step in res["certificate"]]
        assert kinds[0] == "assume"
        assert kinds[-1] == "mirror"
        assert "contradiction" in kinds
        assert all(k in ("assume", "forced", "contradiction", "mirror") for k in kinds)
        forced = [s for s in res["certificate"] if s["kind"] == "forced"]
        assert all("wall" in s and "component" in s for s in forced)

    def test_certificate_tampering_detected(self):
        inst = build_instance("-", 3)
        cert = solve(inst)["certificate"]
        flipped = json.loads(json.dumps(cert))
        for step in flipped:
            if step["kind"] == "forced":
                a, b = PAIR_LABELS[step["pair"]]
                step["selected"] = b if step["selected"] == a else a
                break
        assert not replay_certificate(inst, flipped)
        truncated = [s for s in cert if s["kind"] != "contradiction"]
        assert not replay_certificate(inst, truncated)

    @pytest.mark.parametrize("selected", ["C(1,-2)", "C(-2,-1)", "C(3,1)"])
    def test_certificate_with_label_outside_its_pair_rejected(self, selected):
        # another pair's label, an unnormalized spelling of C(1,2) and a
        # malformed label, each on a forced difference-pair step
        inst = build_instance("-", 3)
        cert = json.loads(json.dumps(solve(inst)["certificate"]))
        step = next(s for s in cert if s["kind"] == "forced" and s["pair"] == "difference")
        step["selected"] = selected
        assert not replay_certificate(inst, cert)

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda cert: [{"kind": "bogus"}],
            lambda cert: [{"kind": "assume"}],
            lambda cert: [{"kind": "bogus"}] + cert,
            lambda cert: [{k: v for k, v in s.items() if k != "kind"} for s in cert],
            lambda cert: [{k: v for k, v in s.items() if (s["kind"], k) != ("forced", "wall")} for s in cert],
        ],
        ids=["bogus-kind-only", "assume-without-point", "bogus-kind-first", "steps-without-kind", "forced-without-wall"],
    )
    def test_malformed_step_rejected(self, mangle):
        inst = build_instance("-", 3)
        cert = json.loads(json.dumps(solve(inst)["certificate"]))
        assert not replay_certificate(inst, mangle(cert))

    @pytest.mark.parametrize(
        "bad",
        [{"point": 5}, {"point": [[1], 2]}, "step", {"component": 7}, {"pair": ["x"]}],
        ids=["int-point", "nested-point", "string-step", "int-component", "list-pair"],
    )
    def test_step_of_the_wrong_shape_rejected(self, bad):
        # one bad step, made from the first forced step, in front of a
        # genuine certificate
        inst = build_instance("-", 3)
        cert = json.loads(json.dumps(solve(inst)["certificate"]))
        assert replay_certificate(inst, cert)
        forced = next(s for s in cert if s["kind"] == "forced")
        step = bad if isinstance(bad, str) else {**forced, **bad}
        assert replay_certificate(inst, [step] + cert) is False

    def test_search_and_replay_parse_no_label(self, monkeypatch):
        # label restrictions come from the table built at import
        def no_parse(label):
            raise AssertionError(f"parsed {label!r}")

        monkeypatch.setattr(polarization, "_parse_label", no_parse)
        for l in (2, 3, 5):
            inst = build_instance("-", l)
            res = _solve_propagation(inst)
            assert res["verdict"] == ("SAT" if l == 2 else "UNSAT")
            assert res["witness"] or replay_certificate(inst, res["certificate"])

    def test_certificate_rejected_on_wrong_instance(self):
        cert = solve(build_instance("-", 3))["certificate"]
        assert not replay_certificate(build_instance("+", 3), cert)

    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_methods_agree(self, sign, l):
        # complete enumeration is the reference: same verdict, and on SAT the
        # very same witness, which pins what `polarization solve` prints
        inst = build_instance(sign, l)
        witness = _solve_exhaustive(inst)
        res = _solve_propagation(inst)
        assert res["verdict"] == ("SAT" if witness is not None else "UNSAT")
        assert res["verdict"] == ("SAT" if sign == "+" or l == 2 else "UNSAT")
        assert res["witness"] == witness
        assert witness is None or check_choice(inst, witness)["ok"]

    def test_method_validation(self):
        # one search at every size
        for l in (2, 4, 5):
            res = solve(build_instance("+", l))
            assert res["method"] == "propagation"

    def test_plus_l32_sat_without_deep_recursion(self):
        # one decision per point: 1024 decisions must not grow the call stack
        inst = build_instance("+", 32)
        res = solve(inst)
        assert res["verdict"] == "SAT"
        assert check_choice(inst, res["witness"])["ok"]

    def test_minus_l16_certificate_is_linear_and_replays(self):
        inst = build_instance("-", 16)
        res = solve(inst)
        assert res["verdict"] == "UNSAT"
        assert len(res["certificate"]) == 2 * 16 + 2
        assert replay_certificate(inst, res["certificate"])

    def test_unsat_persists_under_every_axis_fixing(self):
        # fixing the two always-present pairs uniformly in any of the four
        # ways and enumerating all remaining selections never yields a
        # consistent choice at l = 3
        inst = build_instance("-", 3)
        faces = [(p, inst.pairs_at[p][-1]) for p in inst.points]
        for u1, u2 in itertools.product(PAIR_LABELS["u1Axis"], PAIR_LABELS["u2Axis"]):
            for combo in itertools.product(*(PAIR_LABELS[n] for _, n in faces)):
                choice = uniform_axis(inst, dict(zip(faces, combo)), u1=u1, u2=u2)
                assert not check_choice(inst, choice)["ok"]

    def test_torus_swap_maps_witness_to_witness(self):
        # exchanging the two torus coordinates transposes the points, swaps
        # the axis pairs and transforms each label by swapping index roles
        swap_index = {1: 2, -1: -2, 2: 1, -2: -1}
        swap_pair = {
            "u1Axis": "u2Axis",
            "u2Axis": "u1Axis",
            "difference": "difference",
            "sum": "sum",
        }

        def swap_label(label):
            inner = label[2:-1]
            i, j = (int(x) for x in inner.split(","))
            return normalize_label(f"C({swap_index[i]},{swap_index[j]})")

        inst = build_instance("-", 2)
        witness = solve(inst)["witness"]
        mapped = {
            (((t, s)), swap_pair[name]): swap_label(label)
            for ((s, t), name), label in witness.items()
        }
        assert check_choice(inst, mapped)["ok"]

    def test_point_relabeling_maps_witness_to_witness(self):
        inst = build_instance("-", 2)
        witness = solve(inst)["witness"]
        perm = {1: 2, 2: 1}
        mapped = {
            ((perm[s], perm[t]), name): label
            for ((s, t), name), label in witness.items()
        }
        assert check_choice(inst, mapped)["ok"]

    def test_solve_table(self):
        rows = solve_table(l_values=(2, 3))
        verdicts = {(r["sign"], r["l"]): r["verdict"] for r in rows}
        assert verdicts == {
            ("+", 2): "SAT",
            ("+", 3): "SAT",
            ("-", 2): "SAT",
            ("-", 3): "UNSAT",
        }


def _enumeration_gac(inst, wall, component, qvars, fixed):
    """Reference GAC: try every completion of the free qualifying vars.

    Vars outside qvars get an arbitrary label; a completion is consistent
    when every point of the component has the same sorted list of nonzero
    restrictions to the wall.
    """
    phi = WALL_PHI[wall]
    slots = [(p, name) for p in component for name in inst.pairs_at[p]]
    free = [v for v in qvars if v not in fixed]
    support = {v: set() for v in free}
    satisfiable = False
    for combo in itertools.product(*(PAIR_LABELS[name] for (_, name) in free)):
        assignment = {v: PAIR_LABELS[v[1]][0] for v in slots}
        assignment.update(fixed)
        assignment.update(zip(free, combo))
        lists = {
            p: sorted(v for v in (phi(*label_weight(assignment[(p, n)])) for n in inst.pairs_at[p]) if v)
            for p in component
        }
        if all(values == lists[component[0]] for values in lists.values()):
            satisfiable = True
            for v, label in zip(free, combo):
                support[v].add(label)
    if not satisfiable:
        return False, {}
    return True, {v: next(iter(s)) for v, s in support.items() if len(s) == 1}


class TestCountingGac:
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_matches_enumeration_under_partial_fixings(self, sign, l):
        # every wall-component, singletons included, under the empty fixing
        # and seeded random partial fixings of its qualifying vars
        inst = build_instance(sign, l)
        rng = random.Random(f"{sign}{l}")
        for wall in WALL_NAMES:
            for component in inst.components[wall]:
                qvars = tuple(_qualifying_vars(inst, wall, component))
                fixings = [{}]
                for _ in range(10):
                    share = rng.random()
                    fixings.append(
                        {v: rng.choice(PAIR_LABELS[v[1]]) for v in qvars if rng.random() < share}
                    )
                for fixed in fixings:
                    want = _enumeration_gac(inst, wall, component, qvars, fixed)
                    got = _gac(wall, component, qvars, fixed)
                    assert got[0] == want[0], (wall, component, fixed)
                    assert list(got[1].items()) == list(want[1].items()), (wall, component, fixed)

    @pytest.mark.parametrize(
        "wall, pairs_at",
        [
            ("u1Zero", {(1, 1): ("u2Axis", "sum"), (1, 2): ("u2Axis",)}),
            ("u1EqualsU2", {(1, 1): ("sum", "u1Axis"), (1, 2): ("difference", "u2Axis")}),
            ("u1Zero", {(1, 1): ("u2Axis", "sum"), (1, 2): ("u2Axis", "difference")}),
        ],
    )
    def test_matches_enumeration_on_hand_built_components(self, wall, pairs_at):
        # the first two components carry different numbers of pairs of one
        # magnitude at their two points, which no built instance does
        points = tuple(pairs_at)
        inst = PolarizationInstance(
            sign="-", l=2, points=points, pairs_at=pairs_at, components={wall: (points,)}
        )
        qvars = tuple(_qualifying_vars(inst, wall, points))
        for labels in itertools.product(*((None,) + PAIR_LABELS[name] for _, name in qvars)):
            fixed = {v: label for v, label in zip(qvars, labels) if label is not None}
            want = _enumeration_gac(inst, wall, points, qvars, fixed)
            got = _gac(wall, points, qvars, fixed)
            assert got[0] == want[0], fixed
            assert list(got[1].items()) == list(want[1].items()), fixed
