"""Checks of every op's output against computations made apart from the
program, or against properties the method must have.

Estimates are recomputed from the generated arrays (never from the
program's CSV parse): pooled OLS with ``numpy.linalg.lstsq``, LSDV as
the within estimator with ``np.bincount`` demeaning and dummies
recovered as ybar_i - xbar_i'b, GLS as OLS on data quasi-demeaned with
the theta of the public ``estimate_variance_components``. Stars come
from ``scipy.stats.t``. md/tsv cells must be a 3-decimal rounding of
the independent value. ``recover`` output is checked for properties:
internal consistency, the pooled estimate within Monte Carlo error of
b_true without region effects, LSDV below pooled with them, and equal
bytes for equal argv.

Each ``check_*`` returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from convpanel.estimators import ModelSpec, estimate_variance_components
from convpanel.panel import PanelDataset, build_growth_sample

from workloads import Command, SectorData

STRUCTURAL = ("capital_output_ratio", "goods_flow_output_ratio", "location_quotient")
TITLES = {"pooled": "Pooling", "lsdv": "LSDV", "gls": "GLS"}
RTOL = 1e-6


@dataclass
class Estimate:
    labels: list[str]
    coef: np.ndarray
    t: np.ndarray
    dw: float
    r2: float
    df: int


@dataclass
class Sample:
    """The growth-regression sample, rebuilt from the generated arrays."""

    regions: list[str]            # every region in the selection (report columns)
    contributing: list[str]       # regions with at least one transition (dummy order)
    group: np.ndarray             # index into ``contributing`` per row
    y: np.ndarray
    slopes: np.ndarray            # n x (1 + m): lagged log level, then structural
    gapped: bool                  # some region skips an interior year
    cells: int
    dropped: int
    lq: dict


def _window(data: SectorData, window):
    cols = [j for j, year in enumerate(data.years)
            if window is None or window[0] <= year <= window[1]]
    return cols, [data.years[j] for j in cols]


def location_quotients(source, sector: str, window=None) -> dict:
    """LQ = (e_rs / N_s) / (E_r / N) for every cell holding productivity."""
    data = source.sectors[sector]
    cols, years = _window(data, window)
    with_emp = [d for d in source.sectors.values() if d.employment is not None]
    regional_total = np.nansum([d.employment for d in with_emp], axis=0)
    if data.national_employment is not None:
        national_sector = data.national_employment
        national_total = np.sum([d.national_employment for d in with_emp], axis=0)
    else:
        national_sector = np.nansum(data.employment, axis=0)
        national_total = regional_total.sum(axis=0)
    out = {}
    for i, region in enumerate(data.regions):
        for j in cols:
            if not np.isnan(data.value[i, j]):
                share = data.employment[i, j] / national_sector[j]
                out[(region, data.years[j])] = share / (regional_total[i, j] / national_total[j])
    return out


def growth_sample(command: Command) -> Sample:
    data = command.source.sectors[command.sector]
    cols, _ = _window(data, command.window)
    lq = location_quotients(command.source, command.sector, command.window) \
        if command.conditional else {}
    order = sorted(range(len(data.regions)), key=lambda i: data.regions[i])
    regions, contributing, group, y, slopes = [], [], [], [], []
    gapped, cells, dropped = False, 0, 0
    for i in order:
        region = data.regions[i]
        present = ~np.isnan(data.value[i, cols])
        cells += int(present.sum())
        regions.append(region)
        idx = np.nonzero(present)[0]
        if idx.size and idx[-1] - idx[0] + 1 != idx.size:
            gapped = True
        rows = 0
        for a, b in zip(cols, cols[1:]):
            has_a, has_b = not np.isnan(data.value[i, a]), not np.isnan(data.value[i, b])
            if has_a != has_b:
                dropped += 1
            if not (has_a and has_b):
                continue
            x = math.log(data.value[i, a])
            row = [x]
            if command.conditional:
                row += [data.capital[i, a], data.flow[i, a], lq[(region, data.years[a])]]
            y.append(math.log(data.value[i, b]) - x)
            slopes.append(row)
            group.append(len(contributing))
            rows += 1
        if rows:
            contributing.append(region)
    return Sample(regions, contributing, np.array(group), np.array(y), np.array(slopes),
                  gapped, cells, dropped, lq)


def durbin_watson(resid: np.ndarray, group: np.ndarray) -> float:
    """Rows are grouped by region in year order; differences stay within a region."""
    same = group[1:] == group[:-1]
    diff = np.diff(resid)[same]
    return float(diff @ diff / (resid @ resid))


def _ols(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    s2 = resid @ resid / (len(y) - X.shape[1])
    se = np.sqrt(s2 * np.diag(np.linalg.inv(X.T @ X)))
    return beta, beta / se, resid


def _r2(resid, y) -> float:
    centered = y - y.mean()
    return float(1.0 - resid @ resid / (centered @ centered))


def _slope_labels(k: int) -> list[str]:
    return [f"Coef.{j + 1}" for j in range(k)]


def pooled(s: Sample) -> Estimate:
    X = np.column_stack([np.ones(len(s.y)), s.slopes])
    beta, t, resid = _ols(X, s.y)
    return Estimate(["Const."] + _slope_labels(s.slopes.shape[1]), beta, t,
                    durbin_watson(resid, s.group), _r2(resid, s.y), len(s.y) - X.shape[1])


def lsdv(s: Sample) -> Estimate:
    counts = np.bincount(s.group).astype(float)
    mean_y = np.bincount(s.group, s.y) / counts
    mean_x = np.column_stack([np.bincount(s.group, col) / counts for col in s.slopes.T])
    xw = s.slopes - mean_x[s.group]
    yw = s.y - mean_y[s.group]
    b, *_ = np.linalg.lstsq(xw, yw, rcond=None)
    resid = yw - xw @ b
    df = len(s.y) - len(counts) - s.slopes.shape[1]
    s2 = resid @ resid / df
    vb = s2 * np.linalg.inv(xw.T @ xw)
    alpha = mean_y - mean_x @ b
    alpha_se = np.sqrt(s2 / counts + np.einsum("ij,jk,ik->i", mean_x, vb, mean_x))
    labels = [f"D{i + 1}" for i in range(len(counts))] + _slope_labels(len(b))
    coef = np.concatenate([alpha, b])
    t = coef / np.concatenate([alpha_se, np.sqrt(np.diag(vb))])
    return Estimate(labels, coef, t, durbin_watson(resid, s.group), _r2(resid, s.y), df)


def gls(s: Sample, command: Command) -> Estimate:
    structural = STRUCTURAL if command.conditional else ()
    data = command.source.sectors[command.sector]
    cols, years = _window(data, command.window)
    values, extra = {}, {name: {} for name in structural}
    for i, region in enumerate(data.regions):
        for j, year in zip(cols, years):
            if not np.isnan(data.value[i, j]):
                values[(region, year)] = float(data.value[i, j])
                if structural:
                    extra[STRUCTURAL[0]][(region, year)] = float(data.capital[i, j])
                    extra[STRUCTURAL[1]][(region, year)] = float(data.flow[i, j])
                    extra[STRUCTURAL[2]][(region, year)] = s.lq[(region, year)]
    panel = PanelDataset(tuple(s.regions), tuple(years), command.sector, values, extra)
    spec = ModelSpec(method="gls", structural=structural)
    theta_map = estimate_variance_components(build_growth_sample(panel, structural), spec).theta
    theta = np.array([theta_map[r] for r in s.contributing])[s.group]
    counts = np.bincount(s.group).astype(float)
    mean_y = (np.bincount(s.group, s.y) / counts)[s.group]
    mean_x = np.column_stack([np.bincount(s.group, c) / counts for c in s.slopes.T])[s.group]
    X = np.column_stack([1.0 - theta, s.slopes - theta[:, None] * mean_x])
    y_star = s.y - theta * mean_y
    beta, t, resid = _ols(X, y_star)
    return Estimate(["Const."] + _slope_labels(s.slopes.shape[1]), beta, t,
                    durbin_watson(resid, s.group), _r2(resid, y_star), len(s.y) - X.shape[1])


def stars(t: float, df: int) -> str | None:
    """'*' at 5%, '**' at 10%; None when |t| sits on a critical value."""
    for level, mark in ((0.05, "*"), (0.10, "**")):
        crit = stats.t.ppf(1.0 - level / 2.0, df)
        if abs(abs(t) - crit) < 1e-9 * crit:
            return None
        if abs(t) >= crit:
            return mark
    return ""


def annual_rate(b: float) -> float | None:
    return math.log1p(b) if b > -1.0 else None


# ---------------------------------------------------------------------------
# output comparison


def _close(got, want, rtol=RTOL, atol=1e-9) -> bool:
    return got is not None and want is not None and abs(got - want) <= atol + rtol * abs(want)


def _cell_ok(cell: str, want: float | None) -> bool:
    """True when ``cell`` is a 3-decimal rounding of ``want``."""
    if want is None:
        return cell == ""
    if len(cell.partition(".")[2]) != 3:
        return False
    try:
        value = float(cell)
    except ValueError:
        return False
    return abs(value - want) <= 0.0005 + 1e-7 * max(1.0, abs(want))


def _dw_ok(got, want, gapped: bool, exact) -> bool:
    if gapped:
        # its definition across year gaps is open, so only the range holds
        return got is not None and 0.0 <= float(got) <= 4.0
    return exact(got, want)


def expected_fit(command: Command) -> dict:
    s = growth_sample(command)
    return {"sample": s, "pooled": pooled(s), "lsdv": lsdv(s), "gls": gls(s, command)}


def check_fit(text: str, command: Command, want: dict) -> list[str]:
    s = want["sample"]
    m = s.slopes.shape[1]
    problems = []
    if command.fmt == "json":
        rows = json.loads(text)["rows"]
        if [row["method"] for row in rows] != list(TITLES):
            return [f"methods {[row['method'] for row in rows]}"]
        for row in rows:
            est: Estimate = want[row["method"]]
            got = row["estimates"]
            if list(got) != est.labels:
                problems.append(f"{row['method']} labels {list(got)}")
                continue
            for j, label in enumerate(est.labels):
                cell = got[label]
                if not (_close(cell["value"], est.coef[j]) and _close(cell["t"], est.t[j], atol=1e-6)):
                    problems.append(f"{row['method']} {label} {cell} vs {est.coef[j]}, {est.t[j]}")
                mark = stars(est.t[j], est.df)
                if mark is not None and cell["stars"] != mark:
                    problems.append(f"{row['method']} {label} stars {cell['stars']!r}")
            b = got["Coef.1"]["value"]
            if row["tc"] != annual_rate(b):
                problems.append(f"{row['method']} T.C. {row['tc']} is not ln(1 + {b})")
            if not _dw_ok(row["dw"], est.dw, s.gapped, _close):
                problems.append(f"{row['method']} DW {row['dw']} vs {est.dw}")
            if not _close(row["r2"], est.r2):
                problems.append(f"{row['method']} R2 {row['r2']} vs {est.r2}")
            if row["df"] != est.df or row["rows"] != len(s.y) or row["cells"] != s.cells \
                    or row["dropped_transitions"] != s.dropped:
                problems.append(f"{row['method']} counts {row['df']}, {row['rows']}, "
                                f"{row['cells']}, {row['dropped_transitions']}")
            if row["method"] == "lsdv" and list(row["dummy_regions"].values()) != s.contributing:
                problems.append("lsdv dummy regions")
        return problems

    table = _parse_table(text, command.fmt)
    header = (["Method", "Const."] + [f"D{i + 1}" for i in range(len(s.regions))]
              + _slope_labels(m) + ["T.C.", "DW", "R2", "G.L."])
    if table[0] != header:
        return [f"header {table[0]}"]
    if [row[0] for row in table[1:]] != list(TITLES.values()):
        return [f"methods {[row[0] for row in table[1:]]}"]
    for method, cells in zip(TITLES, table[1:]):
        est: Estimate = want[method]
        named = dict(zip(header, cells))
        for j, label in enumerate(est.labels):
            column = label
            if label.startswith("D"):
                column = f"D{s.regions.index(s.contributing[j]) + 1}"
            if not _estimate_cell_ok(named[column], est.coef[j], est.t[j], stars(est.t[j], est.df)):
                problems.append(f"{method} {label} cell {named[column]!r} vs "
                                f"{est.coef[j]:.6f} ({est.t[j]:.6f})")
        b = est.coef[est.labels.index("Coef.1")]
        if not _cell_ok(named["T.C."], annual_rate(b)):
            problems.append(f"{method} T.C. cell {named['T.C.']!r}")
        dw_ok = _dw_ok(named["DW"], est.dw, s.gapped, _cell_ok)
        if not dw_ok or not _cell_ok(named["R2"], est.r2) or named["G.L."] != str(est.df):
            problems.append(f"{method} DW/R2/G.L. cells {named['DW']!r} {named['R2']!r} "
                            f"{named['G.L.']!r}")
        expected_blank = ({"Const."} if method == "lsdv" else set(header[2:2 + len(s.regions)]))
        for column in expected_blank:
            if named[column] != "":
                problems.append(f"{method} {column} should be blank")
    return problems


def _estimate_cell_ok(cell: str, value: float, t: float, mark: str | None) -> bool:
    head, _, rest = cell.partition(" (")
    got_mark = head[len(head.rstrip("*")):]
    if mark is not None and got_mark != mark:
        return False
    return _cell_ok(head.rstrip("*"), value) and rest.endswith(")") and _cell_ok(rest[:-1], t)


def _parse_table(text: str, fmt: str) -> list[list[str]]:
    lines = text.rstrip("\n").split("\n")
    if fmt == "tsv":
        return [line.split("\t") for line in lines]
    rows = [lines[0]] + lines[2:]
    return [[cell.strip() for cell in row.strip()[1:-1].split(" | ")] for row in rows]


def expected_sigma(command: Command) -> list[tuple[int, int, float]]:
    data = command.source.sectors[command.sector]
    out = []
    for j, year in enumerate(data.years):
        logs = np.log(data.value[~np.isnan(data.value[:, j]), j])
        if logs.size >= 2:
            out.append((year, int(logs.size), float(np.std(logs, ddof=1))))
    return out


def check_sigma(text: str, command: Command, want) -> list[str]:
    if command.fmt == "json":
        got = [(r["year"], r["regions"], r["sigma"]) for r in json.loads(text)["rows"]]
        ok = len(got) == len(want) and all(
            g[:2] == w[:2] and _close(g[2], w[2], rtol=1e-9) for g, w in zip(got, want))
    else:
        table = _parse_table(text, command.fmt)
        ok = table[0] == ["Year", "Regions", "Sigma"] and len(table) - 1 == len(want) and all(
            row[:2] == [str(w[0]), str(w[1])] and abs(float(row[2]) - w[2]) <= 5.000001e-7
            for row, w in zip(table[1:], want))
    return [] if ok else ["sigma table differs from numpy std(log P, ddof=1)"]


def expected_lq(command: Command) -> list[tuple[str, int, float]]:
    lq = location_quotients(command.source, command.sector)
    return [(region, year, lq[(region, year)]) for region, year in sorted(lq)]


def check_lq(text: str, command: Command, want) -> list[str]:
    if command.fmt == "json":
        got = [(r["region"], r["year"], r["lq"]) for r in json.loads(text)["rows"]]
        ok = len(got) == len(want) and all(
            g[:2] == w[:2] and _close(g[2], w[2], rtol=1e-9) for g, w in zip(got, want))
    else:
        table = _parse_table(text, command.fmt)
        ok = table[0] == ["Region", "Year", "LQ"] and len(table) - 1 == len(want) and all(
            row[:2] == [w[0], str(w[1])] and abs(float(row[2]) - w[2]) <= 5.000001e-7
            for row, w in zip(table[1:], want))
    return [] if ok else ["location quotients differ from the employment-share formula"]


def check_recover(text: str, command: Command, want=None) -> list[str]:
    """Criterion-7-style properties of one ``recover`` batch."""
    reps = command.reps
    if command.fmt == "json":
        payload = json.loads(text)
        if payload["replications"] != reps or payload["b_true"] != command.b_true:
            return [f"header {payload['replications']}, {payload['b_true']}"]
        rows = {r["method"]: (r["mean_estimate"], r["mean_bias"], r["sd"], r["coverage95"])
                for r in payload["rows"]}
        tol = 1e-12
    else:
        table = _parse_table(text, command.fmt)
        if table[0] != ["Method", "Mean b", "Bias", "SD", "Coverage95"]:
            return [f"header {table[0]}"]
        names = {title: method for method, title in TITLES.items()}
        rows = {names.get(row[0], row[0]): tuple(float(c) for c in row[1:]) for row in table[1:]}
        tol = 1.5e-6
    if list(rows) != list(TITLES):
        return [f"methods {list(rows)}"]
    problems = []
    for method, (mean, bias, sd, coverage) in rows.items():
        if abs(bias - (mean - command.b_true)) > tol:
            problems.append(f"{method} bias {bias} != mean {mean} - b_true")
        if not (sd > 0.0 and 0.0 <= coverage <= 1.0
                and abs(coverage * reps - round(coverage * reps)) < 1e-6):
            problems.append(f"{method} sd {sd} / coverage {coverage} not a share of {reps}")
    pooled_mean, _, pooled_sd, _ = rows["pooled"]
    if command.effects:
        if not rows["lsdv"][0] < pooled_mean:
            problems.append(f"LSDV {rows['lsdv'][0]} not below pooled {pooled_mean}")
    elif abs(pooled_mean - command.b_true) > 5.0 * pooled_sd / math.sqrt(reps):
        problems.append(f"pooled {pooled_mean} outside Monte Carlo error of {command.b_true}")
    return problems


CHECKS = {
    "fit": (expected_fit, check_fit),
    "sigma": (expected_sigma, check_sigma),
    "lq": (expected_lq, check_lq),
    "recover": (lambda command: None, check_recover),
}


class Ledger:
    """Counts ops and failed ops. An op fails when it exits nonzero,
    raises, or its output fails a check; equal argv must give equal
    bytes within one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._expected: dict[tuple, object] = {}
        self._verdicts: dict[tuple, list[str]] = {}
        self._first_output: dict[tuple, str] = {}

    def record(self, command: Command, code, text: str) -> bool:
        self.attempted += 1
        problems = self._judge(command, code, text)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(command.argv[:1] + command.argv[3:])}: "
                                     + "; ".join(problems[:3]))
        return not problems

    def _judge(self, command: Command, code, text: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        key = tuple(command.argv)
        first = self._first_output.setdefault(key, text)
        if first != text:
            return ["output bytes differ from an earlier run of the same argv"]
        if (key, text) not in self._verdicts:
            expect, check = CHECKS[command.kind]
            if key not in self._expected:
                self._expected[key] = expect(command)
            try:
                verdict = check(text, command, self._expected[key])
            except (ValueError, KeyError, IndexError, TypeError) as error:
                verdict = [f"unparsable output: {error!r}"]
            self._verdicts[(key, text)] = verdict
        return self._verdicts[(key, text)]
