#!/bin/sh
# Unpack the pull request's merge base with origin/$BASE_REF into the
# directory $1, for the informational merge-base-vs-HEAD CI steps.
set -eu
base=$(git merge-base "origin/$BASE_REF" HEAD)
mkdir -p "$1"
git archive "$base" | tar -x -C "$1"
