"""The README's library tour runs, and gives the values its comments state."""

import os
import re
from fractions import Fraction

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_library_tour_runs_as_its_comments_say():
    with open(README, encoding="utf-8") as fh:
        (tour,) = re.findall(r"## Library tour\n\n```python\n(.*?)```", fh.read(), re.S)
    ns = {}
    exec(compile(tour, "README.md", "exec"), ns)
    assert ns["sched"].indices == (1, 3, 7, 15, 31, 63)
    assert ns["tree"].level_count(4) == 4
    assert (ns["n0"], ns["failed"]) == (1, None)
    assert ns["est"] == (Fraction(1, 2), 2)
    assert type(ns["cert"]).__name__ == "GameState"
    assert ns["cert"].to_json_dict()["stages_executed"] == 12  # 2 maps x 2 roots x 3 stages
    cover = ns["dyadic_four_cover"](Fraction(3, 10), Fraction(9, 20))
    assert len(cover) == 4 and all(interval.level == 3 for interval in cover)
    assert ns["to_cube"]("011011", 2) == (Fraction(3, 8), Fraction(5, 8))
