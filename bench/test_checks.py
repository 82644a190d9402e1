"""The output checkers accept real program output and reject corrupted copies.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import io
import json
import os
import random
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import slices  # noqa: E402
import workloads  # noqa: E402


def cli(*argv):
    from causalcoh import cli as program
    out = io.StringIO()
    rc = program.main(list(argv), stdout=out)
    return rc, json.loads(out.getvalue())


class CheckerTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.verify = cli("verify", "--suite", "calabi", "--background", "minkowski4",
                         "--cases", "1", "--seed", "7")
        cls.killing = cli("killing", "--background", "minkowski4", "--operator",
                          "killingYano", "--degree", "2")

    def test_battery_report_passes(self):
        rc, report = self.verify
        self.assertEqual(checks.check_calabi_report(rc, report, cases=1), [])

    def test_failed_identity_is_rejected(self):
        rc, report = copy.deepcopy(self.verify)
        report["results"]["checks"][3]["passed"] = False
        self.assertTrue(checks.check_calabi_report(rc, report, cases=1))

    def test_report_with_zero_checks_is_rejected(self):
        rc, report = cli("verify", "--suite", "calabi", "--background", "minkowski4",
                         "--cases", "0")
        self.assertTrue(report["results"]["all_passed"])  # the program calls it a pass
        self.assertTrue(checks.check_calabi_report(rc, report, cases=1))
        self.assertTrue(checks.check_calabi_report(rc, report, cases=0))

    def test_kernel_dimension(self):
        rc, report = self.killing
        self.assertEqual(checks.check_killing_report(rc, report, "killingYano", n=4), [])
        wrong = copy.deepcopy(report)
        wrong["results"]["dim"] -= 1
        self.assertTrue(checks.check_killing_report(rc, wrong, "killingYano", n=4))

    def test_betti_number_off_by_one_is_rejected(self):
        facets, vertices, betti = slices.slice_catalogue()["S3"]
        relabelled = slices.relabel(facets, vertices, random.Random(3))
        path = os.path.join(BENCH, "out", f"test-{os.getpid()}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        try:
            with open(path, "w") as fh:
                json.dump({"vertices": vertices, "facets": relabelled}, fh)
            rc, report = cli("derham", "--triangulation", path, "--n", "4")
        finally:
            os.remove(path)
        fv = slices.f_vector(relabelled)
        self.assertEqual(checks.check_derham_report(rc, report, betti, fv, 4), [])
        wrong = copy.deepcopy(report)
        wrong["results"]["slice"]["h"][1] += 1
        self.assertTrue(checks.check_derham_report(rc, wrong, betti, fv, 4))
        wrong = copy.deepcopy(report)
        wrong["results"]["table"]["sc"][3] += 1
        self.assertTrue(checks.check_derham_report(rc, wrong, betti, fv, 4))

    def test_non_exact_les_node_is_rejected(self):
        les_audit = workloads.WORKLOADS["les-audit"]
        seqs, verdicts = les_audit.run(11)
        self.assertEqual(les_audit.check(11, (seqs, verdicts)), [])
        s, les, exactness = seqs[0]
        nodes = [(n.degree, n.position, n.dim, v.exact) for n, v in zip(les.nodes, exactness)]
        own = {(d, pos): dim for d, pos, dim, _ in nodes}
        self.assertEqual(checks.check_les(nodes, own), [])
        broken = list(nodes)
        d, pos, dim, _ = broken[2]
        broken[2] = (d, pos, dim, False)
        self.assertTrue(checks.check_les(broken, own))
        off = dict(own)
        off[(d, pos)] = dim + 1
        self.assertTrue(checks.check_les(nodes, off))


class ReferenceTests(unittest.TestCase):
    def test_rank_routine(self):
        self.assertEqual(checks.rank_q([[1, 2], [2, 4]]), 1)
        self.assertEqual(checks.rank_q([[0, 1, 0], [1, 0, 0], [1, 1, 0]]), 2)
        self.assertEqual(checks.rank_q([]), 0)

    def test_generated_slices_are_closed_3_manifolds(self):
        for name, (facets, vertices, betti) in slices.slice_catalogue().items():
            fv = slices.f_vector(facets)
            self.assertEqual(fv[0], vertices, name)
            self.assertEqual(slices.euler_characteristic(fv), 0, name)
            # every triangle lies on exactly two tetrahedra
            cofaces = {}
            for f in facets:
                for i in range(4):
                    tri = tuple(sorted(f[:i] + f[i + 1:]))
                    cofaces[tri] = cofaces.get(tri, 0) + 1
            self.assertEqual(set(cofaces.values()), {2}, name)


if __name__ == "__main__":
    unittest.main()
