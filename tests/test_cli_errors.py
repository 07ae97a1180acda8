"""Every CLI reports a rejected store the same way.

A corrupt checkpoint manifest, model artifact or artifact-cache manifest
makes ``python -m repro.census``, ``repro.serve``, ``repro.model`` and
``repro.report`` exit with code 2 and print an ``error:`` line and a
``hint:`` line on stderr (:func:`repro.cli.run_handler`).
"""

import pytest

from repro.cli.census import main as census_main
from repro.cli.model import main as model_main
from repro.cli.report import main as report_main
from repro.cli.serve import main as serve_main


def _corrupt_census(tmp_path):
    (tmp_path / "ckpt").mkdir()
    (tmp_path / "ckpt" / "manifest.json").write_text("[]")
    return census_main, ["status", "--checkpoint", str(tmp_path / "ckpt")]


def _corrupt_serve(tmp_path):
    (tmp_path / "model.caai").write_bytes(b"not a model")
    return serve_main, ["--artifact", str(tmp_path / "model.caai"),
                        "--checkpoint", str(tmp_path / "ckpt")]


def _corrupt_model(tmp_path):
    (tmp_path / "model.caai").write_bytes(b"CAAI-MODEL v1\n12")
    return model_main, ["load", "--artifact", str(tmp_path / "model.caai")]


def _corrupt_report(tmp_path):
    (tmp_path / "artifacts" / "smoke").mkdir(parents=True)
    (tmp_path / "artifacts" / "smoke" / "manifest.json").write_text("{broken")
    return report_main, ["status", "--profile", "smoke",
                         "--artifacts", str(tmp_path / "artifacts")]


@pytest.mark.parametrize("corrupt", [_corrupt_census, _corrupt_serve,
                                     _corrupt_model, _corrupt_report],
                         ids=["census", "serve", "model", "report"])
def test_corrupt_input_exits_2_with_error_and_hint(corrupt, tmp_path, capsys):
    main, argv = corrupt(tmp_path)
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["error", "hint"]
    assert str(tmp_path) in lines[0]
