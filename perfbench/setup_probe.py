"""Set-up probe: the fixed cost a stage process pays before its first kernel.

    python3 setup_probe.py CONFIG_JSON

Imports nslab, then builds the config's Grid, the kernels of its width
schedule and its test basket.  The caller times the whole process, so the
figure includes interpreter start-up.  Prints the imported package path, so
the caller can confirm which nslab was measured.
"""

import sys


def main(config_path):
    import nslab
    from nslab.config import load_config
    from nslab.filtering import kernel_for

    cfg = load_config(config_path)
    grid = cfg.make_grid()
    for delta in cfg.make_schedule(grid):
        kernel_for(grid, delta)
    cfg.make_basket(grid)
    print(nslab.__file__)


if __name__ == "__main__":
    main(sys.argv[1])
