"""Property: every generated CSV ends in a result or in one diagnostic.

``main()`` runs ``fit``, ``sigma`` and ``lq`` on generated long-format
CSV text (ragged panels, duplicate keys, empty, unparsable, zero,
negative and non-finite cells, NATIONAL rows, a byte-order mark, blank
lines, quoted cells spanning two lines and short rows), and on
noise-free panels whose fits are exact. The exit code is 0, 2 or 3; no
exception escapes; a nonzero exit writes exactly one stderr line,
starting with ``convpanel:``; a fit's JSON prints no t-ratio above 1e12.
Warnings are recorded apart: they are not a failed run's diagnostic.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from convpanel.cli import main

OPTIONAL = ("capital_output_ratio", "goods_flow_output_ratio", "employment")

BAD_CELLS = ["nan", "inf", "-inf", "NaN", "Infinity", "0", "-1", "x1", "5e-324", "1e308"]


@st.composite
def cells(draw):
    """Mostly ordinary positive values, a few blanks and extremes."""
    kind = draw(st.integers(0, 39))
    if kind == 0:
        return ""
    if kind == 1:
        return repr(draw(st.floats(min_value=1e-300, max_value=1e300)))
    return repr(draw(st.floats(min_value=0.5, max_value=2000.0)))


@st.composite
def panels(draw):
    """A region x year x sector panel with holes, an optional NATIONAL
    region and duplicate key, and up to two corrupted numeric cells."""
    columns = ["region", "year", "sector", "output_per_worker"]
    columns += [name for name in OPTIONAL if draw(st.booleans())]
    regions = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "NATIONAL"]),
                            min_size=1, max_size=5, unique=True))
    years = draw(st.lists(st.integers(2000, 2007), min_size=1, max_size=8, unique=True))
    keys = [(r, y, sector) for r in regions for y in years for sector in ("s", "t")]
    holes = draw(st.sets(st.integers(0, len(keys) - 1), max_size=len(keys) // 2))
    keys = [key for i, key in enumerate(keys) if i not in holes]
    if keys and draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(keys)))
    rows = [[region, str(year), sector] + [draw(cells()) for _ in columns[3:]]
            for region, year, sector in draw(st.permutations(keys))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(3, len(columns) - 1))] = draw(st.sampled_from(BAD_CELLS))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(row) - 1))
        row[i] = '"' + row[i] + '\n"'  # a quoted cell spanning two lines
    if rows and draw(st.integers(0, 4)) == 0:
        row = draw(st.sampled_from(rows))
        del row[draw(st.integers(1, len(row) - 1)):]  # a short row
    lines = [",".join(row) for row in [columns] + rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(lines) + "\n"


@st.composite
def exact_panels(draw):
    """Noise-free panels: each region's output per worker is base * growth**t
    in year t of its run, so the region dummies (and, with one growth rate,
    a common intercept) fit the growth rates exactly."""
    regions = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=2, max_size=4, unique=True))
    years = range(2000, 2000 + draw(st.integers(2, 8)))
    common = draw(st.sampled_from([0.97, 1.0, 1.05, 1.3]))
    lines = ["region,year,sector,output_per_worker"]
    for region in regions:
        base = draw(st.floats(min_value=0.5, max_value=2000.0))
        growth = draw(st.one_of(st.just(common), st.floats(min_value=0.8, max_value=1.3)))
        lines += [f"{region},{year},s,{base * growth ** t!r}" for t, year in enumerate(years)]
    return "\n".join(lines) + "\n"


commands = st.one_of(
    st.tuples(
        st.just("fit"),
        st.sampled_from(["--method=pooled", "--method=lsdv", "--method=gls", "--method=all"]),
        st.sampled_from(
            ["--conditional=", "--conditional=capital_output",
             "--conditional=goods_flow,location_quotient"]
        ),
    ),
    st.tuples(st.just("sigma")),
    st.tuples(st.just("lq")),
)


# Inputs that escaped main() as tracebacks: a NaN regressor reached
# scipy, and an infinite or subnormal employment count divided by zero.
NAN_CAPITAL = (
    "region,year,sector,output_per_worker,capital_output_ratio\n"
    "a,2000,s,100,1.5\na,2001,s,105,nan\na,2002,s,102,1.4\n"
    "b,2000,s,90,1.1\nb,2001,s,95,1.2\nb,2002,s,97,1.0\n"
    "c,2000,s,80,0.9\nc,2001,s,84,0.8\nc,2002,s,83,0.7\n"
)
SUBNORMAL_EMPLOYMENT = (
    "region,year,sector,output_per_worker,employment\n"
    "a,2000,s,100,5e-324\na,2001,s,105,5e-324\nb,2000,s,90,1e308\nb,2001,s,95,1e308\n"
)
INF_EMPLOYMENT = (
    "region,year,sector,output_per_worker,employment\n"
    "a,2000,s,100,40\na,2001,s,105,inf\nb,2000,s,90,30\nb,2001,s,95,31\n"
)


# Inputs that move a row's line number or leave its last cells empty.
BLANK_LINES = (
    "region,year,sector,output_per_worker\n\na,2000,s,100\na,2001,s,105\na,2002,s,103\n"
    "\n\nb,2000,s,90\nb,2001,s,95\nb,2002,s,0\n"
)
MULTI_LINE_CELLS = (
    'region,year,sector,output_per_worker\n"a\n",2000,s,100\na,2001,s,"105\n"\n'
    "a,2002,s,103\nb,2000,s,90\nb,2001,s,95\nb,2002,s,x\n"
)
SHORT_ROW = (
    "region,year,sector,output_per_worker,employment\n"
    "a,2000,s,100,5\na,2001,s\nb,2000,s,90,4\nb,2001,s,95,4\n"
)

# Three regions each growing exactly 5% a year: a pooled or LSDV fit printed
# its intercept or dummies starred, with t-ratios of 1e13 and more.
EXACT_GROWTH = "region,year,sector,output_per_worker\n" + "".join(
    f"{region},{2000 + t},s,{base * 1.05 ** t!r}\n"
    for region, base in (("a", 100.0), ("b", 80.0), ("c", 60.0))
    for t in range(6)
)

# A year with one region: its dispersion divides by zero, which numpy
# would report as a RuntimeWarning if the division were not silenced.
ONE_REGION_YEAR = "region,year,sector,output_per_worker\na,2000,s,100\nb,2000,s,90\na,2001,s,105\n"


@settings(max_examples=100, deadline=None)
@example(NAN_CAPITAL, ("fit", "--method=all", "--conditional=capital_output"), (), "md")
@example(INF_EMPLOYMENT, ("lq",), (), "md")
@example(SUBNORMAL_EMPLOYMENT, ("lq",), (), "json")
@example(BLANK_LINES, ("fit", "--method=all", "--conditional="), (), "md")
@example(MULTI_LINE_CELLS, ("sigma",), (), "tsv")
@example(SHORT_ROW, ("lq",), (), "json")
@example(ONE_REGION_YEAR, ("sigma",), (), "md")
@example(EXACT_GROWTH, ("fit", "--method=pooled", "--conditional="), (), "json")
@example(EXACT_GROWTH, ("fit", "--method=lsdv", "--conditional="), (), "json")
@given(
    text=st.one_of(panels(), exact_panels()),
    command=commands,
    window=st.sampled_from([(), ("--from", "2001"), ("--to", "2003")]),
    fmt=st.sampled_from(["md", "tsv", "json"]),
)
def test_main_ends_in_a_result_or_one_diagnostic(text, command, window, fmt):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "panel.csv"
        path.write_text(text, encoding="utf-8")
        argv = [*command, "--input", str(path), "--sector", "s", *window, "--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    # the package's one warning is a UserWarning (a single-row region); numpy's would leak
    assert all(warning.category is UserWarning for warning in caught), [str(w.message) for w in caught]
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("convpanel:"), lines
    elif command[0] == "fit" and fmt == "json":
        # an exact fit's t-ratios are rounding noise, and are printed as null
        ts = [estimate["t"] for row in json.loads(out.getvalue())["rows"]
              for estimate in row["estimates"].values()]
        assert all(t is None or abs(t) <= 1e12 for t in ts), ts
