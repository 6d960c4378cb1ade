"""Guards on the command line's public surface and its output bytes.

The options of `synth`, `ingest` and `train` that set one settings field
take their default and type from that field's default in `SynthConfig`,
`ParseConfig` or `TrainingConfig`, so the option surface guards those
defaults too: a change to an option's name, flag, default, type or
flag-ness, made in the wiring or in a settings class, fails here, and so
does a change to one byte of a pipeline's output.
"""

import hashlib
import json

from click.testing import CliRunner

from knowspan.cli import main
from planted import synth_then_pipeline

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
        ("points", ("--points",), 41, "integer", False),
        ("seed", ("--seed",), 0, "integer", False),
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


# sha256 of every file of the 150-paper planted run (tests/planted.py), with
# `pipeline --dim 8 --epochs 2 --points 3 --export-tree`; for manifest.json,
# of the canonical JSON of its "stages" only, because "versions" depends on
# the environment.  "loss" is the `epoch,mean_loss` CSV the train stage once
# wrote, rebuilt from the manifest's `stages.train.loss_by_epoch`.
PIPELINE_SHA256 = {
    "corpus.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "corpus.parsed.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "correlations.csv": "e1bc4ec7d4ea2ffed54d81304e9b38ef07ec170a050bda86dfed7bf94d69c5ab",
    "curves_model1.csv": "99a1d93014d1798bf047dab9761d5a3eb13918c614fade4d4f7b430f3c75cb0f",
    "curves_model2.csv": "a1cfcfe47606e7262ec08e2270ab9823802a9861b7ebbada27c4d60e548089f0",
    "curves_model3.csv": "472763b405e8689a1124b7a6c9b8cb6f6fb19f6db558980c1685b88c9f2565c1",
    "curves_model4.csv": "89cb50b6fd7f1f2d12a1fefd883c424f2a5a64c2643f5194e708bd0e615d9419",
    "curves_model5.csv": "1c7784cbc39a272c64d7281dcd7d88e498103f628fea64199d9a811d17c77287",
    "curves_model6.csv": "1577e4373c750fa3cfaef8240a9465b7b4727db5daa9a8c8f87cb07362ac7ad8",
    "curves_model7.csv": "d77d8afe6aaffc307601162b0ea77899cc2cb1ba222f6411ae331a618201bfb8",
    "curves_model8.csv": "d067d50a5719da929ccd9e987b0c84fd32880376e05609ca9c6803b5edbd4f8e",
    "disruption.csv": "5234b375261bb4f8ffdd59557ee9eaee1a04f636a1d388282ce7611b13498dda",
    "embedding.txt": "8914d72f076b79081c0b02e8cc756f95bbee5bc7f398bb06e256c676c402785b",
    "loss": "e4e68a07325fa6f222bb934d5e675cb4107ed955464ec4696f3d894025797811",
    "manifest.json": "6d1cc34792d97e478603595ecd03b98809dd3541a6c92e347da17fabd57056b4",
    "metrics.csv": "1f1a10c17daf05da6d303a2173007142732dbf76d63e4e423c472f09314c4f7a",
    "metrics_space.csv": "8e46f5b3cea6d1e92edf71ef41ebab109f28d96dd668bd980022d59662f3b52a",
    "parse_report.json": "adb23f3187f7636eb679cb1f7a7f9e2d70dd83e80fd4454c57fd28844cccce76",
    "regression_model1.csv": "93166ccb81312bc7daf4fe2a66b4dc6a92d0137a261c51e2fb3bd41ba6a136ce",
    "regression_model2.csv": "2053a040e0e04ed6d1d1a146ea4cd307e3e20f2593bf25d56c8e7e6089925d0a",
    "regression_model3.csv": "a86c8c3e858de3a74beea40f0947da077b878db184dc0bfb47edf2e278f72e0a",
    "regression_model4.csv": "16b10e378341046584afe773a5ff6dd40a17a26eb95c1e3aa4e6a38b57861018",
    "regression_model5.csv": "2997f465ffb27efcdb99b180e3305df709b854dae3639c541acfecca26857669",
    "regression_model6.csv": "e876195b7377273c34cbe9e52eabf4fad6042c4721b26911e7a882f607d0b149",
    "regression_model7.csv": "9a7acc09850dfeab43af14a211b252170e7aafc9743cfcbf6ed9e48f0f47e15f",
    "regression_model8.csv": "42086739967b0984825e659ec528b3e12e67a01f5398f44b708d25c99dce0e7e",
    "tree_edges.csv": "54f2643e91d21e794c5d21d1acf5fcfd52bc48183db0f0fe0a23268255c50d17",
}


def pipeline_digests(outdir, *flags, papers=150):
    pipeline_args = ("--dim", "8", "--epochs", "2", "--points", "3", *flags)
    for args in synth_then_pipeline(*pipeline_args, papers=papers, outdir=outdir):
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


# The same digests for 150 papers with `pipeline --dim 8 --epochs 2
# --points 3 --exclude-self`, which takes the leave-one-out journal mean.
EXCLUDE_SELF_SHA256 = {
    "corpus.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "corpus.parsed.jsonl": "da27cdb3c7fdf59603157f1805a46c51b2da2e6fbff44c12da49379403b6ea51",
    "correlations.csv": "d969434ab1aefd6cf7818cd2ee60c2ea60325d9b379cdb023d78105c6b6661f2",
    "curves_model1.csv": "99a1d93014d1798bf047dab9761d5a3eb13918c614fade4d4f7b430f3c75cb0f",
    "curves_model2.csv": "a1cfcfe47606e7262ec08e2270ab9823802a9861b7ebbada27c4d60e548089f0",
    "curves_model3.csv": "64ddc342c111a44245d49fc5b703ddeedf50f370081146a3e37af884e3d35c41",
    "curves_model4.csv": "3a27b5d9183974702e8acc68e1f347976504dabbf65fc388a1d4dff660ca190d",
    "curves_model5.csv": "1c7784cbc39a272c64d7281dcd7d88e498103f628fea64199d9a811d17c77287",
    "curves_model6.csv": "1577e4373c750fa3cfaef8240a9465b7b4727db5daa9a8c8f87cb07362ac7ad8",
    "curves_model7.csv": "39d76edc77a70d0ee3610251073a316744b93aa8502c046db8ed9df5a6768de8",
    "curves_model8.csv": "e9d829d63d73fc56e02d0686d57820e983d1dd23348391b02e4c5c85762f4a50",
    "disruption.csv": "5234b375261bb4f8ffdd59557ee9eaee1a04f636a1d388282ce7611b13498dda",
    "embedding.txt": "8914d72f076b79081c0b02e8cc756f95bbee5bc7f398bb06e256c676c402785b",
    "manifest.json": "165a7846c62313a3a63494f1112c80772b4e8d3d7c6ba564c5d109bb8f3be632",
    "metrics.csv": "780598781ce2604a91558f9724dc5a45aec5c7c310a6386e86882f4231b3ffb1",
    "metrics_space.csv": "7512d89021c862fc008135fa8c3ab7eb6e41d2c14130a27c47b5ce8046375322",
    "parse_report.json": "adb23f3187f7636eb679cb1f7a7f9e2d70dd83e80fd4454c57fd28844cccce76",
    "regression_model1.csv": "93166ccb81312bc7daf4fe2a66b4dc6a92d0137a261c51e2fb3bd41ba6a136ce",
    "regression_model2.csv": "2053a040e0e04ed6d1d1a146ea4cd307e3e20f2593bf25d56c8e7e6089925d0a",
    "regression_model3.csv": "36eabc1009f31521767837e7145bf76e83e2a9da191bcac55b9f717b8d6c70ed",
    "regression_model4.csv": "2c49a386d3e8c2bda2a6e52d33cf6b176a5c49fe7f8fbd937875fd3bab0571f7",
    "regression_model5.csv": "2997f465ffb27efcdb99b180e3305df709b854dae3639c541acfecca26857669",
    "regression_model6.csv": "e876195b7377273c34cbe9e52eabf4fad6042c4721b26911e7a882f607d0b149",
    "regression_model7.csv": "7df34596ce8543ba561685fcb8cd8c7869a6d34d6747caac86251b71ba9d3eb7",
    "regression_model8.csv": "b495e4368c1401aa328020773fabbf17c3b2f9048011f54ece7d02f0a1a0bfe3",
}


def test_exclude_self_pipeline_output_matches_the_recorded_digests(tmp_path):
    assert pipeline_digests(tmp_path, "--exclude-self") == EXCLUDE_SELF_SHA256


# The same digests for 400 papers with `pipeline --dim 8 --epochs 2
# --points 3`.  Its 400 papers hold more code pairs than the 60-code
# vocabulary has, so `metrics` keeps article-distance pair terms in a table;
# the 150-paper runs above recompute every term.
TABLE_PATH_SHA256 = {
    "corpus.jsonl": "4b854ec471f57f09f696cd9d8ec9e8146a879a502f4aeb0750713b0b1bebc4c8",
    "corpus.parsed.jsonl": "4b854ec471f57f09f696cd9d8ec9e8146a879a502f4aeb0750713b0b1bebc4c8",
    "correlations.csv": "21255cefaf8ee9e0011b6e1e252b6fb66aeb309094f8cb53c0c69c62ecbddc0a",
    "curves_model1.csv": "12f3cab6e19b3ec7b9cea2b8904f39d39eb81ec50c4092d59a5894c0afcb28aa",
    "curves_model2.csv": "c4b0c606068613b8da87cb1eb61f73219e19b70794d47c47387a0206ee46eecc",
    "curves_model3.csv": "48055d7bfc282e4feb4a0922fdd1920251c380b4031dbe2c3675114e2921ea10",
    "curves_model4.csv": "ce4bfa73934ded3a0e260f01607dec9fa3a1df5117277b46c00c4a9476646d36",
    "curves_model5.csv": "48ab58c7abf965d1df3f02b886c9fc47694355a9149511a300f50b94ceaa45fa",
    "curves_model6.csv": "04996d19104a1d6b7398588a1c50e2be7394a43a0894e937ed5757b0a0042596",
    "curves_model7.csv": "533cb2242401c80fdc312dcbf82d1f1aba4375128fdc97e500c17f0aae744e2c",
    "curves_model8.csv": "a9d398af7060d46a46f4bf7069ab1a8f2856df0877138bc8bd581974fe8a1aac",
    "disruption.csv": "c89e6b57ab3db090c24636dfd807d5ebb15522fe161b27d1953432785b71f11b",
    "embedding.txt": "3a87dc9d3250710035cc241d508f045d3e08f88c04bcedc51b1befa3ecf7ded2",
    "manifest.json": "32b266ef229781c4606ab064957114de8560a35e370c2feacad108f85717d88c",
    "metrics.csv": "6b70d648d213fea0aad8ceb9ede1ac7dba2ce81d9c6da04c7a0da8fe531de7d5",
    "metrics_space.csv": "8ea899ba53a0db0fc2490c90113b6074ad4e3d23934d47e1a23b5736ae5225fe",
    "parse_report.json": "0007e4cfa5a3bb1719be2e0dc808aad13ec169cedc14a84c8d82a735a2f6a37c",
    "regression_model1.csv": "cc64efb00c59b44acbacedf4e57fb7762046903620215e7abc89ef39a55659a0",
    "regression_model2.csv": "851a8036b7906ce82df8474ef417c153098ca86982d4531acc99927a9cf27bf0",
    "regression_model3.csv": "2a4660f693248e8828f83f0f8f405a79377ab786e894b23eb91387e8f47c59d8",
    "regression_model4.csv": "a2c399a787992d96b3c1c280f3d5930654319733a599c529fa184929aef8e4bb",
    "regression_model5.csv": "b51c2d5665adc5a75252e68a08f93c3342e388fd8cc54edb78f7fa2aabef61bf",
    "regression_model6.csv": "379e2d2610d61a145437eb24e403196120d19042a76f778ee689946ae99fb097",
    "regression_model7.csv": "1f7989f7220ba4e8e10eb094e1505a400d85f364ac8e9e67d81048ed89e0d281",
    "regression_model8.csv": "4aa3ec7574c0cdb6f729689ee12c8d07960119346c58b0ec9d7cf0fdf353ff71",
}


def test_table_path_pipeline_output_matches_the_recorded_digests(tmp_path):
    assert pipeline_digests(tmp_path, papers=400) == TABLE_PATH_SHA256
