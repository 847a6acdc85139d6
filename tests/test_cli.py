import json
import os

import pytest

from rkcq import cli
from rkcq.harness import run_stability_report


def test_stability_report_out_writes_one_complete_file(tmp_path, capsys):
    out = tmp_path / "report"
    assert cli.main(["stability-report", "--m-range", "1-3", "--out", str(out)]) == 0
    assert os.listdir(out) == ["stability_report.json"]
    text = (out / "stability_report.json").read_text()
    assert text == json.dumps(run_stability_report((1, 2, 3)), indent=2) + "\n"
    assert capsys.readouterr().out.strip() == str(out / "stability_report.json")


@pytest.mark.parametrize("text", ["5-3", "0-2", "1-13", "1-x", "1-2-3", "", "2,,3", "0,3"])
def test_stability_report_rejects_bad_m_range_as_usage_error(text, capsys):
    # an empty, malformed or out-of-range --m-range exits 2 with argparse's
    # usage message before any report work, not with [] or a traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["stability-report", "--m-range", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--m-range" in err


def test_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table1", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_stability_report_rejects_empty_m_range():
    with pytest.raises(ValueError, match="m_range"):
        run_stability_report(())


def test_run_applies_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "scalar_convergence", "m": 2, "N_list": [8, 16],
                               "N_ref": 64, "label": "tiny"}))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--nref", "128"]) == 0
    index = json.loads((out / "tiny_index.json").read_text())
    got = index["cells"][0]["config"]
    assert (got["N_ref"], got["N_list"]) == (128, [8, 16])


def test_table_applies_overrides(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["table1", "--out", str(out), "--nref", "512"]) == 0
    index = json.loads((out / "table1_index.json").read_text())
    for cell in index["cells"]:
        assert cell["config"]["N_ref"] == 512
        assert cell["config"]["N_list"] == [16, 32, 64, 128, 256]
