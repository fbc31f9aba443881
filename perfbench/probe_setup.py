"""Set-up probe: import levyflow's command-line entry point and resolve a
workload's config files, then exit.  run.py times this script in fresh
interpreters for ``setup_s``.

    python3 perfbench/probe_setup.py WORKLOAD CONFIG...
"""

import sys

from levyflow import cli, config  # noqa: F401 - what the `levyflow` command imports

workload, paths = sys.argv[1], sys.argv[2:]
for path in paths:
    sections = config.load_config_file(path)
    if workload == "fracheck-ladder":
        config.fracheck_params_from(sections)
    else:
        model = config.macro_config_from if workload == "macro-ensemble" else config.micro_config_from
        model(sections)
        config.ensemble_config_from(sections, 0, 1)
