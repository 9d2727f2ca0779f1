"""The README's library quick tour runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_tour_prints_its_commented_outputs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    printed = []
    exec(block, {"print": lambda *values: printed.append(values)})
    comments = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    # the digits each comment shows, checked against the value printed
    assert comments == ["StabilityClass.LINEARLY_STABLE", "~1e-14", "~0.049 0.055"]
    (verdict,), (rigidity,), (fitted, predicted) = printed
    assert str(verdict) == "StabilityClass.LINEARLY_STABLE"
    assert rigidity < 1e-12
    assert (round(fitted, 3), round(predicted, 3)) == (0.049, 0.055)
