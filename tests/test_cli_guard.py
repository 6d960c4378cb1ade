"""Guards on the command line's public surface and its output bytes.

Both tables were recorded with one click declaration per option per
command, so a rewrite of the wiring that changes an option's name, flag,
default, type or flag-ness, or one byte of a pipeline's output, fails here.
"""

import hashlib
import json

from click.testing import CliRunner

from knowspan.cli import main

# (parameter name, flags, default, click type name, is_flag) per subcommand.
OPTION_SURFACE = {
    "correlate": {
        ("columns", ("--columns",),
         "journal_distance,article_distance,article_distance_log,network_distance,"
         "team_size,citation_count,log_citations,d_score,d_percentile,years,n_pages,"
         "title_length", "text", False),
        ("config_path", ("--config",), None, "file", False),
        ("outdir", ("--outdir",), ".", "directory", False),
    },
    "curves": {
        ("center", ("--center",), "none", "choice", False),
        ("config_path", ("--config",), None, "file", False),
        ("levels", ("--levels",), None, "text", False),
        ("model", ("--model",), "all", "text", False),
        ("outdir", ("--outdir",), ".", "directory", False),
        ("points", ("--points",), 41, "integer", False),
    },
    "disrupt": {
        ("config_path", ("--config",), None, "file", False),
        ("d_variant", ("--d-variant",), "disjoint", "choice", False),
        ("outdir", ("--outdir",), ".", "directory", False),
    },
    "ingest": {
        ("config_path", ("--config",), None, "file", False),
        ("end_year", ("--end-year",), 0, "integer", False),
        ("input_path", ("--input",), None, "file", False),
        ("max_year", ("--max-year",), 2100, "integer", False),
        ("min_year", ("--min-year",), 1800, "integer", False),
        ("outdir", ("--outdir",), ".", "directory", False),
        ("pad_short_codes", ("--pad-short-codes",), False, "boolean", True),
    },
    "metrics": {
        ("config_path", ("--config",), None, "file", False),
        ("exclude_self", ("--exclude-self",), False, "boolean", True),
        ("export_tree", ("--export-tree",), False, "boolean", True),
        ("outdir", ("--outdir",), ".", "directory", False),
    },
    "pipeline": {
        ("center", ("--center",), "none", "choice", False),
        ("config_path", ("--config",), None, "file", False),
        ("d_variant", ("--d-variant",), "disjoint", "choice", False),
        ("dim", ("--dim",), 50, "integer", False),
        ("end_year", ("--end-year",), 0, "integer", False),
        ("epochs", ("--epochs",), 5, "integer", False),
        ("exclude_self", ("--exclude-self",), False, "boolean", True),
        ("export_tree", ("--export-tree",), False, "boolean", True),
        ("final_lr", ("--final-lr",), 0.0001, "float", False),
        ("initial_lr", ("--initial-lr",), 0.025, "float", False),
        ("input_path", ("--input",), None, "file", False),
        ("max_year", ("--max-year",), 2100, "integer", False),
        ("min_year", ("--min-year",), 1800, "integer", False),
        ("negatives", ("--negatives",), 5, "integer", False),
        ("outdir", ("--outdir",), ".", "directory", False),
        ("pad_short_codes", ("--pad-short-codes",), False, "boolean", True),
        ("papers", ("--papers",), 5000, "integer", False),
        ("points", ("--points",), 41, "integer", False),
        ("seed", ("--seed",), 0, "integer", False),
        ("use_synth", ("--synth",), False, "boolean", True),
    },
    "regress": {
        ("center", ("--center",), "none", "choice", False),
        ("config_path", ("--config",), None, "file", False),
        ("model", ("--model",), "all", "text", False),
        ("outdir", ("--outdir",), ".", "directory", False),
    },
    "synth": {
        ("blocks", ("--blocks",), 6, "integer", False),
        ("codes", ("--codes",), 60, "integer", False),
        ("codes_per_paper", ("--codes-per-paper",), 5, "integer", False),
        ("config_path", ("--config",), None, "file", False),
        ("density", ("--density",), 12.0, "float", False),
        ("journals", ("--journals",), 8, "integer", False),
        ("leakage", ("--leakage",), 0.15, "float", False),
        ("outdir", ("--outdir",), ".", "directory", False),
        ("papers", ("--papers",), 5000, "integer", False),
        ("planted", ("--planted",), "none", "choice", False),
        ("planted_moderator", ("--planted-moderator",), "none", "choice", False),
        ("seed", ("--seed",), 7, "integer", False),
    },
    "train": {
        ("config_path", ("--config",), None, "file", False),
        ("dim", ("--dim",), 50, "integer", False),
        ("epochs", ("--epochs",), 5, "integer", False),
        ("final_lr", ("--final-lr",), 0.0001, "float", False),
        ("initial_lr", ("--initial-lr",), 0.025, "float", False),
        ("negatives", ("--negatives",), 5, "integer", False),
        ("outdir", ("--outdir",), ".", "directory", False),
        ("seed", ("--seed",), 0, "integer", False),
    },
}


def test_every_subcommand_keeps_its_option_surface():
    surface = {
        name: {
            (p.name, tuple(p.opts), p.default, p.type.name, bool(getattr(p, "is_flag", False)))
            for p in command.params
        }
        for name, command in main.commands.items()
    }
    assert surface == OPTION_SURFACE


# sha256 of every file of `pipeline --synth --papers 150 --dim 8 --epochs 2
# --points 3 --export-tree`; for manifest.json, of the canonical JSON of its
# "stages" only, because "versions" depends on the environment.  "loss" is
# the `epoch,mean_loss` CSV the train stage once wrote, rebuilt from the
# manifest's `stages.train.loss_by_epoch`.
PIPELINE_SHA256 = {
    "corpus.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "corpus.parsed.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "correlations.csv": "7fd65f74eebe852f483c2c51c9610341a9b333c9c2b30d731c175864b1ffbb24",
    "curves_model1.csv": "99a1d93014d1798bf047dab9761d5a3eb13918c614fade4d4f7b430f3c75cb0f",
    "curves_model2.csv": "a1cfcfe47606e7262ec08e2270ab9823802a9861b7ebbada27c4d60e548089f0",
    "curves_model3.csv": "472763b405e8689a1124b7a6c9b8cb6f6fb19f6db558980c1685b88c9f2565c1",
    "curves_model4.csv": "89cb50b6fd7f1f2d12a1fefd883c424f2a5a64c2643f5194e708bd0e615d9419",
    "curves_model5.csv": "1c7784cbc39a272c64d7281dcd7d88e498103f628fea64199d9a811d17c77287",
    "curves_model6.csv": "1577e4373c750fa3cfaef8240a9465b7b4727db5daa9a8c8f87cb07362ac7ad8",
    "curves_model7.csv": "d77d8afe6aaffc307601162b0ea77899cc2cb1ba222f6411ae331a618201bfb8",
    "curves_model8.csv": "d067d50a5719da929ccd9e987b0c84fd32880376e05609ca9c6803b5edbd4f8e",
    "disruption.csv": "608ccb3a9d6a4786098b2feb04b1f2f00f05294cb8114c45132e990fbaa6fc64",
    "embedding.txt": "8914d72f076b79081c0b02e8cc756f95bbee5bc7f398bb06e256c676c402785b",
    "loss": "e4e68a07325fa6f222bb934d5e675cb4107ed955464ec4696f3d894025797811",
    "manifest.json": "d30bda99c639c3d34029523ea82662a3333557987b22007d4e5fcea1974ed8a5",
    "metrics.csv": "1f1a10c17daf05da6d303a2173007142732dbf76d63e4e423c472f09314c4f7a",
    "metrics_space.csv": "ebf5d38e00e71f092a7d90a8b3c86336acc505242c79e1671491af41eb951540",
    "parse_report.json": "adb23f3187f7636eb679cb1f7a7f9e2d70dd83e80fd4454c57fd28844cccce76",
    "regression_model1.csv": "3e8ec4bb4cda91eb96fa21a5b34cfd486788f046be919b18982af68d43f59510",
    "regression_model2.csv": "01b641c7fe20fb62f898f79f0df51d7ff95afa48307cb22b9501ea799897d497",
    "regression_model3.csv": "0529739f53653fdb573bcd17da1af62e0c0e8fec6e397bb3bd70eaf30b58c4f9",
    "regression_model4.csv": "3167ac4f6c188c5f8d156184ac6c0c883cbbb2d262d5633c8859a354a170602a",
    "regression_model5.csv": "3e2b17fc24a3426adfe010b9005f462b96d395e1081697aa3bd76217e31ca1ef",
    "regression_model6.csv": "6317a2a5ce322756a0d3a55c296c446022d4cf4794008fbe3df19870e0ad7091",
    "regression_model7.csv": "1e49ae581c6d17544df8efbf7c20a575cbead3a0442667b0e007a9a861c095a8",
    "regression_model8.csv": "aa0b19df046a76a31497a8651b98dfceec92725cbc62ba2dbbac374e6a60a76c",
    "tree_edges.csv": "54f2643e91d21e794c5d21d1acf5fcfd52bc48183db0f0fe0a23268255c50d17",
}


def pipeline_digests(outdir, *flags, papers=150):
    args = ["pipeline", "--outdir", str(outdir), "--synth", "--papers", str(papers),
            "--dim", "8", "--epochs", "2", "--points", "3", *flags]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr or result.output
    digests = {}
    for path in outdir.iterdir():
        data = path.read_bytes()
        if path.name == "manifest.json":
            stages = json.loads(data)["stages"]
            data = json.dumps(stages, sort_keys=True, separators=(",", ":")).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def loss_csv(outdir):
    losses = json.loads((outdir / "manifest.json").read_text())["stages"]["train"]["loss_by_epoch"]
    return "epoch,mean_loss\n" + "".join(f"{e},{loss!r}\n" for e, loss in enumerate(losses, 1))


def test_pipeline_output_matches_the_recorded_digests(tmp_path):
    digests = pipeline_digests(tmp_path, "--export-tree")
    digests["loss"] = hashlib.sha256(loss_csv(tmp_path).encode()).hexdigest()
    assert digests == PIPELINE_SHA256


# The same digests for `pipeline --synth --papers 150 --dim 8 --epochs 2
# --points 3 --exclude-self`, which takes the leave-one-out journal mean.
EXCLUDE_SELF_SHA256 = {
    "corpus.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "corpus.parsed.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "correlations.csv": "a9b326d80371c4084d50a16655f217c9bcb121428383c3bc0db81d98a1444409",
    "curves_model1.csv": "99a1d93014d1798bf047dab9761d5a3eb13918c614fade4d4f7b430f3c75cb0f",
    "curves_model2.csv": "a1cfcfe47606e7262ec08e2270ab9823802a9861b7ebbada27c4d60e548089f0",
    "curves_model3.csv": "64ddc342c111a44245d49fc5b703ddeedf50f370081146a3e37af884e3d35c41",
    "curves_model4.csv": "3a27b5d9183974702e8acc68e1f347976504dabbf65fc388a1d4dff660ca190d",
    "curves_model5.csv": "1c7784cbc39a272c64d7281dcd7d88e498103f628fea64199d9a811d17c77287",
    "curves_model6.csv": "1577e4373c750fa3cfaef8240a9465b7b4727db5daa9a8c8f87cb07362ac7ad8",
    "curves_model7.csv": "39d76edc77a70d0ee3610251073a316744b93aa8502c046db8ed9df5a6768de8",
    "curves_model8.csv": "e9d829d63d73fc56e02d0686d57820e983d1dd23348391b02e4c5c85762f4a50",
    "disruption.csv": "608ccb3a9d6a4786098b2feb04b1f2f00f05294cb8114c45132e990fbaa6fc64",
    "embedding.txt": "8914d72f076b79081c0b02e8cc756f95bbee5bc7f398bb06e256c676c402785b",
    "manifest.json": "2bbd4360e502b4f039699a2867bf59afe1643cbf08c434abd08a64f9e401426b",
    "metrics.csv": "780598781ce2604a91558f9724dc5a45aec5c7c310a6386e86882f4231b3ffb1",
    "metrics_space.csv": "9df755a83a9cc4bf248a9d7d4fe36a306350a51b1f2a607d532393c3d0cbb959",
    "parse_report.json": "adb23f3187f7636eb679cb1f7a7f9e2d70dd83e80fd4454c57fd28844cccce76",
    "regression_model1.csv": "3e8ec4bb4cda91eb96fa21a5b34cfd486788f046be919b18982af68d43f59510",
    "regression_model2.csv": "01b641c7fe20fb62f898f79f0df51d7ff95afa48307cb22b9501ea799897d497",
    "regression_model3.csv": "0c7008ebf3f0636af55d2f07dc4d4d8631dccf809c1c8cbe78fed766b8f91ad5",
    "regression_model4.csv": "c55035765df983f26577404fdd7affb5917d213f8331cb5e6db808b8dfb032cc",
    "regression_model5.csv": "3e2b17fc24a3426adfe010b9005f462b96d395e1081697aa3bd76217e31ca1ef",
    "regression_model6.csv": "6317a2a5ce322756a0d3a55c296c446022d4cf4794008fbe3df19870e0ad7091",
    "regression_model7.csv": "418db3d3fd33a15c2739e1687b56df2de9d8fab18f7a423efcdaee4ad6747e7f",
    "regression_model8.csv": "6c744b2b018f1d65b2c708e21bb0a1858ddf9db39f7722800ab6b046807ad5a5",
}


def test_exclude_self_pipeline_output_matches_the_recorded_digests(tmp_path):
    assert pipeline_digests(tmp_path, "--exclude-self") == EXCLUDE_SELF_SHA256


# The same digests for `pipeline --synth --papers 400 --dim 8 --epochs 2
# --points 3`.  Its 400 papers hold more code pairs than the 60-code
# vocabulary has, so `metrics` keeps article-distance pair terms in a table;
# the 150-paper runs above recompute every term.
TABLE_PATH_SHA256 = {
    "corpus.jsonl": "4b854ec471f57f09f696cd9d8ec9e8146a879a502f4aeb0750713b0b1bebc4c8",
    "corpus.parsed.jsonl": "4b854ec471f57f09f696cd9d8ec9e8146a879a502f4aeb0750713b0b1bebc4c8",
    "correlations.csv": "c9b1f37da2649472dadf64a79c40d1a78f2338d822b211e12ed7f570acdca5c6",
    "curves_model1.csv": "12f3cab6e19b3ec7b9cea2b8904f39d39eb81ec50c4092d59a5894c0afcb28aa",
    "curves_model2.csv": "c4b0c606068613b8da87cb1eb61f73219e19b70794d47c47387a0206ee46eecc",
    "curves_model3.csv": "48055d7bfc282e4feb4a0922fdd1920251c380b4031dbe2c3675114e2921ea10",
    "curves_model4.csv": "ce4bfa73934ded3a0e260f01607dec9fa3a1df5117277b46c00c4a9476646d36",
    "curves_model5.csv": "48ab58c7abf965d1df3f02b886c9fc47694355a9149511a300f50b94ceaa45fa",
    "curves_model6.csv": "04996d19104a1d6b7398588a1c50e2be7394a43a0894e937ed5757b0a0042596",
    "curves_model7.csv": "533cb2242401c80fdc312dcbf82d1f1aba4375128fdc97e500c17f0aae744e2c",
    "curves_model8.csv": "a9d398af7060d46a46f4bf7069ab1a8f2856df0877138bc8bd581974fe8a1aac",
    "disruption.csv": "11c2e8c287580ccb4861e482fe58b1a5b565f6d90995522663542b8b061ea303",
    "embedding.txt": "3a87dc9d3250710035cc241d508f045d3e08f88c04bcedc51b1befa3ecf7ded2",
    "manifest.json": "80476da286d847ad323f52a2fcec3d78da2c28c4c3b7669c13cfb66d181ddc90",
    "metrics.csv": "6b70d648d213fea0aad8ceb9ede1ac7dba2ce81d9c6da04c7a0da8fe531de7d5",
    "metrics_space.csv": "688aa93fd23a033520d63000353ca22ed304cd8ff9da2b1ed2e36e9ce9e9d828",
    "parse_report.json": "0007e4cfa5a3bb1719be2e0dc808aad13ec169cedc14a84c8d82a735a2f6a37c",
    "regression_model1.csv": "1ce846721951b4909b3ef3cd70fe0ab2e66bae1d22fed4e37fe42bd268a66964",
    "regression_model2.csv": "e59c691487bac92bd4fed3ad371fec18af9f3a6d9fa238d2c99984c977f1793c",
    "regression_model3.csv": "bf024b290bc9ce76513dcd865426c9e0193d818bfc899fa3655acb7a20819e79",
    "regression_model4.csv": "4bd00f3ace825720f419355efeabfc001c8460a8d147fd19099d9fcec5c63101",
    "regression_model5.csv": "43981747bb2832a05b7b7a781e949125f6b8f944f052fe39d522a6aa67b9d4fe",
    "regression_model6.csv": "9c1be0d8f2eb10a29ac4c04d8548e7dbe39ea0e6a04883b5cb0c034e1b5c5f76",
    "regression_model7.csv": "43774737e2840eb495d1f63696948b2473bd53e178c4554e83c84dc1988b529e",
    "regression_model8.csv": "80757bbb1328c3913721f601ab9e9b428747d42a56f16ca7f67f53d15034df35",
}


def test_table_path_pipeline_output_matches_the_recorded_digests(tmp_path):
    assert pipeline_digests(tmp_path, papers=400) == TABLE_PATH_SHA256
