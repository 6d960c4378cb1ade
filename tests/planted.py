"""The planted run most command-line tests analyse.

``synth_then_pipeline`` gives the two commands of that run: `synth` of a
corpus with an inverted-U citation effect amplified by team size, seeded 0
like training's default, then `pipeline` on it.  The digests the tests pin
were recorded on these corpora.
"""

PLANTED = ["--seed", "0", "--planted", "inverted-u", "--planted-moderator", "amplify"]


def synth_then_pipeline(*pipeline_args, papers=None, outdir=None):
    """The `synth` and `pipeline` argument lists, both with ``--outdir
    outdir`` when it is given; ``papers`` sizes the corpus, by default as
    `synth` does."""
    sized = [] if papers is None else ["--papers", str(papers)]
    where = [] if outdir is None else ["--outdir", str(outdir)]
    return [["synth", *PLANTED, *sized, *where], ["pipeline", *pipeline_args, *where]]
