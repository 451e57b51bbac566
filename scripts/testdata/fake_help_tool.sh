#!/bin/sh
# --help of a tool whose only option's description names a flag it lacks.
echo "  --timeout <SEC>  abort a --listen run after SEC seconds (default: none)"
