import argparse

parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int, default=0)
