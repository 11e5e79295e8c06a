"""Seeded Thumb firmware images with a known set of branch sites.

Each generated block is some filler, a ``movs``-immediate load, a
``cmp``-immediate guard, and one conditional branch to a nearby block.
The image holds no literal pool and every filler encoding lies outside
the conditional-branch range ``0xD000-0xDDFF``, so linear discovery must
find exactly the generated sites.
"""

from __future__ import annotations

import random

from repro.firmware.image import FirmwareImage
from repro.isa.assembler import assemble
from repro.isa.conditions import CONDITION_NAMES

BASE = 0x0800_0000

#: encodings 0x0xxx-0x3xxx and 0xBF00: none aliases a conditional branch
_FILLER = (
    "adds r{a}, r{a}, #{imm3}",
    "lsls r{a}, r{b}, #{imm3}",
    "subs r{a}, #{imm8}",
    "nop",
)
#: conditional branches only (``al`` has no B<c> encoding)
_CONDITIONS = tuple(name for name in CONDITION_NAMES if name != "al")
#: a taken branch stays this many blocks away at most, well inside the
#: +-256-byte reach of a 16-bit B<c>
_REACH = 12


def generate_image(seed: int, n_sites: int) -> tuple[FirmwareImage, set]:
    """Build the image for ``seed``; returns it and its expected sites.

    Expected sites are ``(address, mnemonic, taken)`` triples, the shape
    :class:`repro.campaign.sites.BranchSite` reports.
    """
    rng = random.Random(seed)
    lines = ["_start:"]
    branches = []
    for index in range(n_sites):
        lines.append(f"block{index}:")
        for _ in range(rng.randint(0, 2)):
            lines.append("    " + rng.choice(_FILLER).format(
                a=rng.randint(0, 7), b=rng.randint(0, 7),
                imm3=rng.randint(0, 7), imm8=rng.randint(0, 255)))
        reg = rng.randint(0, 7)
        lines.append(f"    movs r{reg}, #{rng.randint(0, 255)}")
        lines.append(f"    cmp r{reg}, #{rng.randint(0, 255)}")
        cond = rng.choice(_CONDITIONS)
        target = min(n_sites - 1, max(0, index + rng.randint(-_REACH, _REACH)))
        lines.append(f"site{index}:")
        lines.append(f"    b{cond} block{target}")
        branches.append((index, cond, target))
    lines.append("    bkpt #0")
    program = assemble("\n".join(lines), base=BASE)
    expected = {
        (program.symbols[f"site{index}"], f"b{cond}", program.symbols[f"block{target}"])
        for index, cond, target in branches
    }
    return FirmwareImage.from_program(program), expected
