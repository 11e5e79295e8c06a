"""Cheap tier-1 pins of every grid-scan kind (Tables I, II, III and VI).

The slow goldens pin Tables I-III at stride 2/4 only; these pin the
per-row tallies of all four scan kinds at coarse strides, so a change to
the shared scan skeleton, the row codec or a fault stream shows up in
tier-1. The values were measured before the scans were folded into one
``run_scan``; any drift means a scan changed what it computes.
"""

from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table6 import run_table6

#: guard → rows of (cycle, instruction, attempts, successes, resets,
#: sorted register-value counts) at stride 12
TABLE1_STRIDE12 = {
    "not_a": [
        (0, "mov r3, sp", 81, 1, 7, [(536887279, 1)]),
        (1, "adds r3, #7", 81, 2, 6, [(0, 2)]),
        (2, "ldrb r3, [r3]", 81, 2, 6, [(85, 1), (1207975956, 1)]),
        (3, "ldrb r3, [r3]", 81, 1, 6, [(1207961616, 1)]),
        (4, "cmp r3, #0", 81, 1, 6, [(8192, 1)]),
        (5, "beq -12", 81, 1, 6, [(0, 1)]),
        (6, "beq -12", 81, 0, 8, []),
        (7, "beq -12", 81, 1, 6, [(165, 1)]),
    ],
    "a": [
        (0, "mov r3, sp", 81, 0, 7, []),
        (1, "adds r3, #7", 81, 0, 6, []),
        (2, "ldrb r3, [r3]", 81, 1, 6, [(0, 1)]),
        (3, "ldrb r3, [r3]", 81, 0, 6, []),
        (4, "cmp r3, #0", 81, 0, 6, []),
        (5, "bne -12", 81, 1, 6, [(1, 1)]),
        (6, "bne -12", 81, 0, 8, []),
        (7, "bne -12", 81, 0, 6, []),
    ],
    "a_ne_const": [
        (0, "ldr r2, [sp, #16]", 81, 0, 6, []),
        (1, "ldr r2, [sp, #16]", 81, 1, 6, [(3889321827, 1)]),
        (2, "ldr r3, [pc, #16]", 81, 1, 6, [(3889321827, 1)]),
        (3, "ldr r3, [pc, #16]", 81, 0, 6, []),
        (4, "cmp r2, r3", 81, 0, 6, []),
        (5, "bne -10", 81, 1, 6, [(3889321827, 1)]),
        (6, "bne -10", 81, 0, 7, []),
        (7, "bne -10", 81, 0, 6, []),
    ],
}

#: guard → rows of (cycle, attempts, partial, full) at stride 12
TABLE2_STRIDE12 = {
    "not_a": [
        (0, 81, 1, 0), (1, 81, 2, 0), (2, 81, 1, 1), (3, 81, 1, 0),
        (4, 81, 1, 0), (5, 81, 0, 1), (6, 81, 0, 0), (7, 81, 1, 0),
    ],
    "a": [
        (0, 81, 0, 0), (1, 81, 0, 0), (2, 81, 1, 0), (3, 81, 0, 0),
        (4, 81, 0, 0), (5, 81, 0, 1), (6, 81, 0, 0), (7, 81, 0, 0),
    ],
    "a_ne_const": [
        (0, 81, 0, 0), (1, 81, 1, 0), (2, 81, 1, 0), (3, 81, 0, 0),
        (4, 81, 0, 0), (5, 81, 0, 1), (6, 81, 0, 0), (7, 81, 0, 0),
    ],
}

#: guard → rows of (last cycle, attempts, successes) at stride 12
TABLE3_STRIDE12 = {
    "not_a": [
        (10, 81, 1), (11, 81, 1), (12, 81, 1), (13, 81, 1),
        (14, 81, 1), (15, 81, 1), (16, 81, 1), (17, 81, 1),
        (18, 81, 1), (19, 81, 1), (20, 81, 1),
    ],
    "a": [
        (10, 81, 0), (11, 81, 0), (12, 81, 0), (13, 81, 0),
        (14, 81, 0), (15, 81, 0), (16, 81, 0), (17, 81, 0),
        (18, 81, 0), (19, 81, 0), (20, 81, 0),
    ],
    "a_ne_const": [
        (10, 81, 0), (11, 81, 0), (12, 81, 0), (13, 81, 0),
        (14, 81, 0), (15, 81, 0), (16, 81, 0), (17, 81, 0),
        (18, 81, 0), (19, 81, 0), (20, 81, 0),
    ],
}

#: (scenario, defense, attack) → (attempts, successes, detections, resets,
#: no_effect) at stride 24
TABLE6_STRIDE24 = {
    ("if_success", "all", "long"): (250, 0, 0, 48, 202),
    ("if_success", "all", "single"): (275, 0, 0, 34, 241),
    ("if_success", "all", "windowed"): (275, 0, 0, 45, 230),
    ("if_success", "all_no_delay", "long"): (250, 0, 1, 47, 202),
    ("if_success", "all_no_delay", "single"): (275, 0, 1, 34, 240),
    ("if_success", "all_no_delay", "windowed"): (275, 0, 0, 47, 228),
    ("if_success", "none", "long"): (250, 0, 0, 48, 202),
    ("if_success", "none", "single"): (275, 2, 0, 34, 239),
    ("if_success", "none", "windowed"): (275, 1, 0, 48, 226),
    ("while_not_a", "all", "long"): (250, 0, 0, 48, 202),
    ("while_not_a", "all", "single"): (275, 0, 0, 34, 241),
    ("while_not_a", "all", "windowed"): (275, 0, 0, 44, 231),
    ("while_not_a", "all_no_delay", "long"): (250, 10, 0, 40, 200),
    ("while_not_a", "all_no_delay", "single"): (275, 6, 1, 34, 234),
    ("while_not_a", "all_no_delay", "windowed"): (275, 1, 3, 44, 227),
    ("while_not_a", "none", "long"): (250, 10, 0, 40, 200),
    ("while_not_a", "none", "single"): (275, 7, 0, 34, 234),
    ("while_not_a", "none", "windowed"): (275, 4, 0, 45, 226),
}


def test_table1_rows_pinned():
    scans = run_table1(stride=12).scans
    assert {
        guard: [
            (row.cycle, row.instruction, row.attempts, row.successes, row.resets,
             sorted(row.register_values.items()))
            for row in scan.rows
        ]
        for guard, scan in scans.items()
    } == TABLE1_STRIDE12


def test_table2_rows_pinned():
    scans = run_table2(stride=12).scans
    assert {
        guard: [(row.cycle, row.attempts, row.partial, row.full) for row in scan.rows]
        for guard, scan in scans.items()
    } == TABLE2_STRIDE12


def test_table3_rows_pinned():
    scans = run_table3(stride=12).scans
    assert {
        guard: [(row.last_cycle, row.attempts, row.successes) for row in scan.rows]
        for guard, scan in scans.items()
    } == TABLE3_STRIDE12


def test_table6_tallies_pinned():
    results = run_table6(stride=24).results
    assert {
        key: (scan.attempts, scan.successes, scan.detections, scan.resets, scan.no_effect)
        for key, scan in results.items()
    } == TABLE6_STRIDE24
