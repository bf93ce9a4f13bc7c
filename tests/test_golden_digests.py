"""Golden digests: whole run reports, pinned byte for byte.

The differential tests compare the fast drivers against the per-slot
reference, so an error the two share (in ``CFMemory.tick``, in
``_finish``, in report assembly) passes them.  These digests were
recorded on the engine as it stood before its per-slot tick was
streamlined, and cover the reference itself: the sha256 of every
``run_spec`` report below (metrics snapshots included), of a spin-lock
run over the Chapter 4 ``AddressTrackingController``, of a
fault-injected chaos sweep and of a degraded-mode QoS run.  A change meant only to speed the simulator up
must leave every digest as it is; a deliberate model change re-records
them with :func:`current_digests`::

    PYTHONPATH=src python -c "from tests.test_golden_digests import \\
        current_digests; import json; \\
        print(json.dumps(current_digests(), indent=4, sort_keys=True))"
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

import pytest

from repro.obs.bench import run_spec
from tests.history import record_finishes

CFM_SHAPES = [(4, 1), (8, 2), (16, 4), (32, 8), (64, 16)]


def _cases() -> List[Tuple[str, Dict[str, object]]]:
    cases: List[Tuple[str, Dict[str, object]]] = []
    for n, c in CFM_SHAPES:
        params = {"n_procs": n, "bank_cycle": c, "cycles": 3 * n * c + 7}
        cases.append((f"cfm.{n}x{c}", {"system": "cfm", "params": params}))
        cases.append((f"cfm.{n}x{c}.reference", {"system": "cfm", "params": {
            **params, "engine": "reference"}}))
    for n in (2, 4, 8):
        for workload in ("mix", "private"):
            params = {"n_procs": n, "rounds": 10, "seed": 3,
                      "workload": workload}
            cases.append((f"cache.{workload}.{n}", {
                "system": "cache", "params": params}))
            cases.append((f"cache.{workload}.{n}.reference", {
                "system": "cache", "params": {**params,
                                              "engine": "reference"}}))
    for workload in ("local", "global"):
        params = {"n_clusters": 2, "procs_per_cluster": 2, "rounds": 6,
                  "seed": 3, "workload": workload}
        cases.append((f"hierarchy.{workload}", {
            "system": "hierarchy", "params": params}))
        cases.append((f"hierarchy.{workload}.reference", {
            "system": "hierarchy", "params": {**params,
                                              "engine": "reference"}}))
    cases.append(("faults_chaos", {"system": "faults_chaos", "params": {
        "trials": 1, "seed": 5, "quick": True}}))
    cases.append(("qos.degraded", {"system": "qos", "params": {
        "n_procs": 8, "bank_cycle": 2, "cycles": 600, "rate": 0.05,
        "bulk_rate": 0.05, "degraded_bank": 1}}))
    return cases


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _spin_lock_record() -> Dict[str, object]:
    """A contended spin lock (§4.2.2) on the address-tracked CFM: the
    ATT read, restart and write-priority rules all fire."""
    from repro.tracking.locks import SpinLockSystem

    sys_ = SpinLockSystem(8, bank_cycle=2, cs_cycles=5)
    mem, ctrl = sys_.mem, sys_.controller
    finished = record_finishes(mem)
    acquisitions = sys_.run()
    return {
        "acquisitions": [[a.proc, a.requested_slot, a.acquired_slot,
                          a.released_slot] for a in acquisitions],
        "unlock_latencies": sys_.unlock_latencies,
        "slot": mem.slot,
        "completed": [[a.access_id, a.proc, a.kind.value, a.complete_slot,
                       a.restarts] for a in finished.completed],
        "aborted": [[a.access_id, a.proc, a.kind.value,
                     a.final_action.value if a.final_action else None]
                    for a in finished.aborted],
        "controller": [ctrl.aborts, ctrl.restarts, ctrl.retries],
        "lock": [w.value for w in mem.peek_block(sys_.lock_offset).words],
    }


def current_digests() -> Dict[str, str]:
    """The digest of every case, as this build computes it."""
    out = {name: _sha(run_spec(spec)) for name, spec in _cases()}
    out["tracking.locks"] = _sha(_spin_lock_record())
    return out


GOLDEN = {
    "cache.mix.2":
        "ff4a8ed182fa56edbc4ff0a518d6d33cf2786e2125bb13f17010d9deb3b2bac1",
    "cache.mix.2.reference":
        "33e6c2ffd6fdc38e6700b1be534f439ead59e60f73c9ef269cabc3200a20a881",
    "cache.mix.4":
        "ac60278001a5ee728daf6f5d3fad7d69707911e1a8cec65e3345ae8b92ccae64",
    "cache.mix.4.reference":
        "1ed68b0b3b6afbb363a339fe6be6d93889690383bc3200fb037438d06777633a",
    "cache.mix.8":
        "dbbe66a414ef8cbc2217b00f3a8eff3d7f0900944ff43bc397e7491274185df0",
    "cache.mix.8.reference":
        "41ffec60b386cf5956d86362ce853ad23f7f6df4ea41f5f80f831908dc0ba08f",
    "cache.private.2":
        "fc4838f1ee09a906fe2b2f24e105755e9cf3f6f2fc0c367dc848b79a98a53a99",
    "cache.private.2.reference":
        "8b080f644457b1707aac1eddd329b6e21eb1e29ef07cb01180373359c8d55ff1",
    "cache.private.4":
        "49f6382af3c4ca7d622f94e86295188fcafdc0d4355d73585f6ce0fa8827fced",
    "cache.private.4.reference":
        "9d484e892678ffc2eecadd206ad1d47c5c786ae2158e7343b27441a6df2ce4e9",
    "cache.private.8":
        "6cacf28160969a157aa92e6358411a5aa6aba531f05d80547516e1fdf3b4771b",
    "cache.private.8.reference":
        "9d6eef0fa1d5af069e74c0a0b2b59048b9d18e6bc2d0fb283b2472a9a1192091",
    "cfm.16x4":
        "de97d76d62bf52b21096f99aec17d5a0739acb4198f053117b1adcdc1d37154d",
    "cfm.16x4.reference":
        "3f792321143565a8da723b557d89a364f2a66980e90263bd70baa0358d66e2d3",
    "cfm.32x8":
        "df28bfa46659fdfa4bd88e5bc3c205f0916d2f953e1563457d0ec95515014945",
    "cfm.32x8.reference":
        "71d71e6341560e81cd30509548336c6c10f07cec4e7682e5d228f1777075ded7",
    "cfm.4x1":
        "46bc0f8bed7c45317ef85f1e84941a3011c842adc57e04b68ece7e9c3664e8a9",
    "cfm.4x1.reference":
        "e388a59c31df6a0e7885f0260c97635f1d30cae08ea06043c7a27432b4f6e84b",
    "cfm.64x16":
        "a8f4a2e969cc8ec68762e3080ffbeedc401bffdde913449479f24ab35e050f83",
    "cfm.64x16.reference":
        "9d9d42efea46f5a5ebee554e6331c8ec31bc560d8c3cab1823a6f7b9b556c57a",
    "cfm.8x2":
        "1ec0c33bb46b29ab223847babfe9bfce14c57391ff11ba0c8687ea33acf95f5f",
    "cfm.8x2.reference":
        "d3232d6115dfbd963925460b9aa9e95cb1bff2764305e1a0fe0c6999d95b4f1e",
    "faults_chaos":
        "51a3f1de2fcc970b29ceacb7b04701cee173d69bdc82021f91773fce9b4e9a02",
    "hierarchy.global":
        "004ea9f3860e4bcc742d67fcdc26362ddff76738e600c8b0d95cf36823310966",
    "hierarchy.global.reference":
        "644447a82d7c5857236461ecc7c39f6eb39cb1b406eb6ada607405230ccbe41d",
    "hierarchy.local":
        "4f2f55e6cac6756690e8c7d102c5c36bee468ed1b4faaea36b7f52aa1f5bc202",
    "hierarchy.local.reference":
        "7462219fb6ed8f8e8c3c36d3138106f566edba5ca8339d29ee2ca7bc405e3053",
    "qos.degraded":
        "55cc2bc6ad6c7bb71d5264d518276a561390d8d141eaa62f8d78947673ba54ef",
    "tracking.locks":
        "2ed8fddd25ecbb9cc1f8ff384e3050e8639b04a0de598306c357fe6f361a1bfd",
}


@pytest.mark.parametrize("name,spec", _cases(), ids=[n for n, _ in _cases()])
def test_run_spec_report_digest(name, spec):
    assert _sha(run_spec(spec)) == GOLDEN[name]


def test_spin_lock_digest():
    assert _sha(_spin_lock_record()) == GOLDEN["tracking.locks"]


def test_golden_covers_every_case():
    assert set(GOLDEN) == {n for n, _ in _cases()} | {"tracking.locks"}
