#!/bin/sh
# Full CI gate: vet (amd64, arm64 and 386), build, the one-body, kernel,
# assembly, arm64 fused-multiply-add, deleted-path, message-buffer and one-codec grep audits, plain
# tests (root, 386 and the benchmark module), short fuzz runs of both binary
# decoders and the checkpoint shard probe, race-enabled tests, the
# layout-strategy comparison (2-D and 3-D), the per-phase
# traffic regression gate, the 2-D and 3-D golden pins, the multi-process
# TCP smoke (loopback golden + kill -9 crash detection + kill-and-recover
# byte-identity), the picserve daemon smoke (served golden + typed
# admission rejects + daemon kill -9 recovery + SIGTERM drain), and an
# examples smoke run. Wall-clock performance is benchmark/'s job
# (bash benchmark/run.sh), not CI's.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go vet, arm64 (the portable path beside the amd64 assembly) =="
# The strip kernels have an SSE2 body on amd64 and a scalar one elsewhere;
# vetting both keeps the portable path compiling and, on amd64, the
# assembly's frame in step with its Go declaration (asmdecl).
GOARCH=arm64 go vet ./...

echo "== go build =="
go build ./...

echo "== one-body audit (grep) =="
# DESIGN.md "Intra-rank shared-memory parallelism": outside internal/par,
# non-test Go never compares a worker count or tests a pool for nil — every
# kernel has one body at every worker count (the scatter is one sequential
# range kernel) — and internal/radix has two LSD pass loops (the pairs
# driver and the keys-only SortKeysIndex).
forks=$(grep -rnE '\.workers *[<>=!]|Workers\(\) *[<>=!]|[pP]ool *[!=]= *nil' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build --exclude-dir=par . || true)
if [ -n "$forks" ]; then
    echo "want no worker-count/nil-pool fork outside internal/par, got:"
    printf '%s\n' "$forks"
    exit 1
fi
passes=$(grep -n 'for pass := 0; pass <' internal/radix/*.go | grep -vc _test.go || true)
if [ "$passes" -gt 2 ]; then
    echo "internal/radix has $passes LSD pass loops, want at most 2"
    exit 1
fi

echo "== kernel audit (grep) =="
# DESIGN.md "The geometry layer": the per-particle loops of the time step,
# the cost ledger's observation included, live in internal/geom's range
# kernels, whose general path resolves a cell's vertex targets (owned slot
# or ghost-table slot) once per run of same-cell particles. Non-test
# internal/pic never walks a Footprint vertex by vertex (Footprint +
# fields.Slot), maps wire gids to slots only in the two ghost receive/reply
# loops of phases.go, and never moves one particle at a time.
pic=$(ls internal/pic/*.go | grep -v _test.go)
walks=$(cat $pic | grep -c '\.Footprint(' || true)
slots=$(cat $pic | grep -c 'fields\.Slot(' || true)
wire=$(grep -c 'fields\.Slot(' internal/pic/phases.go || true)
if [ "$walks" -gt 0 ] || [ "$wire" -ne 2 ] || [ "$slots" -gt "$wire" ] || grep -n 'ge\.Move(' $pic; then
    echo "per-particle geometry calls in internal/pic: $walks Footprint walks (want 0)," \
        "$slots fields.Slot calls (want 2, in phases.go)"
    grep -n '\.Footprint(\|fields\.Slot(' $pic
    exit 1
fi
# The redistribution's classification charges its δ once per run of
# equal-cost particles (Transport.ComputeRepeat), never a Compute per
# particle.
if grep -n 'Compute(classifyWork' internal/psort/*.go | grep -v '_test\.go:'; then
    echo "per-particle classification charge reappeared in internal/psort"
    exit 1
fi

echo "== assembly audit (grep) =="
# DESIGN.md "The geometry layer", strip kernels: assembly in internal/ is
# SSE2, which every amd64 CPU has, so no CPU feature check or dispatch is
# ever needed: no VEX-encoded (V...) and no FMA mnemonic. A fused
# multiply-add would also round differently from the scalar reference.
old=$(find internal -name '*.s' -exec grep -nHE '^[[:space:]]*(V[A-Z0-9]+|[A-Z0-9]*FMA[A-Z0-9]*)[[:space:]]' {} + || true)
if [ -n "$old" ]; then
    echo "a VEX or FMA instruction in internal/ assembly (SSE2 only):"
    printf '%s\n' "$old"
    exit 1
fi

echo "== fused multiply-add audit (arm64 compiler output) =="
# DESIGN.md "The geometry layer": Go fuses x*y + z into one arm64
# instruction that rounds once, so fused float code would not match the
# amd64 bits. Every product that feeds an add or subtract is written as an
# explicit float64(x*y), which forbids the fusion and is a no-op on amd64;
# the module's arm64 code must hold no fused multiply-add. Compiler output
# names each instruction's source line, so a function inlined into another
# package is still caught. (Nothing here runs on arm64; the lines of
# internal/replicated, compared to a tolerance, are the one exception.)
fused=$(GOARCH=arm64 go build -gcflags=-S ./... 2>&1 |
    grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' |
    grep -v '/internal/replicated/' || true)
if [ -n "$fused" ]; then
    echo "fused multiply-adds in the arm64 build (wrap the product in float64()):"
    printf '%s\n' "$fused"
    exit 1
fi

echo "== deleted-path audit (grep) =="
# The tiled scatter, the second wall-clock harness (picbench -bench/-cpu,
# bench/BENCH_*.json), the dominated topology spellings (systolic-ring,
# pic-level hierarchical[:H], the bare ring descriptor), the phase-pipeline
# layer (internal/engine and pic's adapters onto it), the Elastic twins of
# the TCP entry points, the nil-topology digest and diag's dead histogram
# are gone, and so are the untested FaultPlan rank filters, the unused
# collective-tag aliases, serve's copy of the atomic write, and the particle
# memory nobody owned (psort's pooled sorters and balance scratch,
# particle.Scratch and SwapContents, the Incremental's two output slots,
# SampleSortParX, pic's keepChunk copy and parked migrate spare), and the
# lossy-link fault model with everything that served it (comm's Faulty and
# Reliable decorators, FaultPlan, Degradable and CollectFailures, the
# held-message flushChain, the two envelope body kinds of the TCP codec, the
# last collective-tag alias, psort's bounds snapshot, and pic's rollback of
# a failed redistribution with its record and result fields), and the
# boot and merge copies of the particle memory (pic's whole-population
# population() helper, psort's materialised mergeInto and the localSort
# that sorted the received run as a store) with the dead exports that went
# with them (IsLocallySorted, particle.WireBytes, CostLedger.Observe), and
# sfc's n-D Hilbert codec (HilbertAxesToIndex, HilbertIndexToAxes) and 2-D
# encoders (HilbertXY2D, MortonXY2D), now test oracles of the curve tables,
# and the 2-D/3-D twins above the kernels (particle's Config3, Generate3 and
# NewGenerator3, geom's fields2/fields3 adapters, partition's
# IndependentLayout and MeasureIndependent) with the field and mesh exports
# only their tests called (LocalOf, MaxLocalPoints), and the message-body
# exports nothing called (comm's SendInts, RecvInts, ExposeMaxFloat64s and
# the generic Allgather/AllToMany, commopt's GroupByOwner), and the 3-D
# field block beside the 2-D one (field's NewLocal3, sweepTask3 and slab
# sweeps, and the geom.Fields interface over the two): one field.Local
# holds both dimensions, and the cost ledger's per-particle footprint walk
# with its padded scratch (pic's workerScratch and costFP): the observation
# is a geom range kernel, and the kernels' per-particle table walks
# (depositFootprint, gatherFootprint): a cell's targets are memoised, and
# the one-particle pusher.Boris and pusher.Move: the range kernels push
# and move whole strips (pusher.BorisStrip, MoveRange), and the 2-D/3-D
# twins below the pipeline (geom's G2 and G3 with axis3 and block3,
# pusher's Weights3, CIC3, Interp3, MoveRange3 and VertexOffsets3, and
# mesh3.Dist): one geometry, one grid and one distribution serve both
# dimensions, and the 2-D/3-D curve twins (sfc's Indexer3, RowMajor3,
# Snake3, compacted3 with newCompacted3, the exported Hilbert, Morton,
# RowMajor and Snake types, HilbertD2XY and SideForGrid): one
# sfc.Indexer over (x, y, z) serves both dimensions. A
# failed exchange is a dead rank that checkpoint recovery handles, benchmark/ is
# the one wall-clock harness, Config.Topology names a link set, the time
# step is a loop in pic.runRank, NetRank, LaunchLoopback and SuperviseRanks
# are the one rank entry point, in-process launcher and supervisor,
# ckpt.WriteFileAtomic is the one atomic write, and a rank's Incremental
# owns every particle array it builds. None may come back in
# non-test Go or a script (this file excluded: it holds the pattern).
old=$(grep -rnE 'depositTiled|parTiles|scatterGenTask|runBench|runCPUSweep|BENCH_|TopologySystolicRing|TopologyHierarchical|autoHosts|NewRing|systolic-ring|picpar/internal/engine|engine\.(Phase|Pipeline|Trigger|Hook|Always)|composePipeline|policyTrigger|verifyHook|attemptRebalance|NetRankElastic|LaunchLoopbackElastic|SuperviseRanksElastic|topologyDigest|RankHistogram|SrcRanks|DstRanks|TagColl(Barrier|Bcast|Reduce|Gather|Allgather|Scan)|writeFileAtomic|outSlot|migrateOneShot|sorterPool|balPool|particle\.Scratch|SwapContents|SampleSortParX|keepChunk|st\.spare|NewFaulty|NewReliable|FaultPlan|Degradable|CollectFailures|SnapshotBounds|RestoreBounds|RedistFailed|FailedRedistributions|WastedRedistTime|relEnvelope|faultEnvelope|TagCollAllToMany|flushChain|mergeInto|population\(|localSort\(|IsLocallySorted|WireBytes|\.Observe\(|HilbertAxesToIndex|HilbertIndexToAxes|HilbertXY2D|MortonXY2D|Config3|Generate3|NewGenerator3|fields2|fields3|IndependentLayout|MeasureIndependent|LocalOf|MaxLocalPoints|SendInts|RecvInts|ExposeMaxFloat64s|func (Allgather|AllToMany)\[|GroupByOwner|NewLocal3|sweepTask3|updateESlabs|updateBSlabs|geom\.Fields|workerScratch|costFP|depositFootprint|gatherFootprint|ge\.weights\(|pusher\.(Boris|Move)\(|type G[23]\b|axis3|block3|Weights3|CIC3|Interp3|MoveRange3|VertexOffsets3|mesh3\.Dist|Indexer3|RowMajor3|Snake3|compacted3|newCompacted3|sfc\.(Hilbert|Morton|RowMajor|Snake)\b|HilbertD2XY|SideForGrid' \
    --include='*.go' --include='*.sh' --exclude='*_test.go' --exclude=ci.sh \
    --exclude-dir=.bench_build . || true)
if [ -n "$old" ]; then
    echo "deleted second paths reappeared:"
    printf '%s\n' "$old"
    exit 1
fi
# Every world has a link set: the full mesh is a descriptor too, so neither
# non-test internal/pic nor the comm backends test a topology for nil. The
# one nil read left is NetRank's entry default, where an unset
# NetConfig.Topology becomes NewFullMesh. exchanger.go is not audited: a nil
# Exchanger.tp names the systolic protocol, not a missing link set.
comm=$(printf 'internal/comm/%s.go ' core comm net hier topology rendezvous)
old=$( { grep -n 'topo [!=]= nil' $pic
    grep -nE '(topo|tp|Topology) [!=]= nil' $comm |
        grep -vE '^internal/comm/net\.go:[0-9]+:[[:space:]]+if cfg\.Topology == nil \{$'; } || true)
if [ -n "$old" ]; then
    echo "a topology is tested for nil (the full mesh is a descriptor):"
    printf '%s\n' "$old"
    exit 1
fi
# Stores are filled in bulk (AppendRange, AppendIndices, AppendWire), never
# one particle at a time: the per-particle AppendFrom survives only for
# benchmark/probes.go, which PRs may not edit.
old=$(grep -rn 'AppendFrom' --include='*.go' --exclude='*_test.go' \
    --exclude-dir=benchmark --exclude-dir=.bench_build --exclude-dir=particle . || true)
if [ -n "$old" ]; then
    echo "per-particle AppendFrom reappeared outside internal/particle:"
    printf '%s\n' "$old"
    exit 1
fi

echo "== message-buffer audit (grep) =="
# DESIGN.md "The TCP backend": message buffers cycle through internal/wire.
# Halo faces are drawn from the pool, never made per send, the reader both
# codecs decode through builds no error context on the success path, and
# an Expose table is rank-owned scratch, never a fresh []any per call.
old=$( { grep -n 'make(\[\]float64, 0' internal/field/*.go | grep -v '_test\.go:'
    grep -n 'what+"' internal/wire/codec.go
    grep -nE 'make\(\[\]any, n\.p\)|\[\]any\(nil\)' internal/comm/*.go | grep -v '_test\.go:'; } || true)
if [ -n "$old" ]; then
    echo "per-message allocation reappeared on the message path:"
    printf '%s\n' "$old"
    exit 1
fi

echo "== one-codec audit (grep) =="
# DESIGN.md "The TCP backend" and "Checkpoint/restart": TCP frames and
# checkpoint shards are written by wire.Writer and read by wire.Reader.
# Non-test Go outside internal/wire defines no take... decode primitive and
# no appendU64, and neither codec spells out the machine.Stats per-phase
# block field by field (Writer.Phases / Reader.Phases do).
ckpt=$(ls internal/ckpt/*.go | grep -v _test.go)
old=$( { grep -rnE '^func (take[A-Z]|appendU64)' --include='*.go' --exclude='*_test.go' \
        --exclude-dir=wire --exclude-dir=.bench_build .
    grep -nE '\.(ComputeTime|CommTime|MsgsRecv)\b' internal/comm/netcodec.go $ckpt; } || true)
if [ -n "$old" ]; then
    echo "a second byte codec reappeared outside internal/wire:"
    printf '%s\n' "$old"
    exit 1
fi

echo "== go test =="
go test ./...

echo "== go vet and go test, 386 (32-bit int) =="
# The module runs where an int is 32 bits: a constant or a product that
# needs 64 bits must be an int64 or uint64 there, and the golden pins,
# which the tests assert, equal amd64's.
GOARCH=386 go vet ./...
GOARCH=386 go test ./...

echo "== fuzz (15 s per binary decoder and the shard probe) =="
# The committed corpora replay in go test; these are short real searches.
# go test minimizes each new-coverage input for up to 60 s by default, which
# spends a 15 s budget on the first one: cap it at 1 s.
go test -run '^$' -fuzz FuzzDecodeFrame -fuzztime 15s -fuzzminimizetime 1s ./internal/comm/
go test -run '^$' -fuzz FuzzDecodeShard -fuzztime 15s -fuzzminimizetime 1s ./internal/ckpt/
go test -run '^$' -fuzz FuzzShardIdentity -fuzztime 15s -fuzzminimizetime 1s ./internal/ckpt/

echo "== benchmark module (vet + test) =="
# benchmark/ is its own Go module: the root ./... patterns cannot see it,
# yet it pins symbols of the packages above.
(cd benchmark && go vet . && go test -count=1 .)

echo "== go test -race =="
# internal/experiments alone takes ~9m under the race detector on an idle
# machine; the default per-package 10m limit leaves no headroom. This stage
# is also the guard against read-after-recycle: a rank that reads a sent
# []float64 after the TCP transport returned it to the wire pool races with
# whichever rank draws it next (TestCollectivesTCPBackend caught Bcast
# doing exactly that).
go test -race -timeout 30m ./...

echo "== go test -race, shared-memory workers =="
# The parallel kernels again with real OS-thread concurrency and a
# non-trivial default worker count: GOMAXPROCS>1 lets pool workers truly
# interleave, PICPAR_PROCS=3 routes every zero-Workers config through the
# pool, and the radix/pool property tests re-run in race mode.
GOMAXPROCS=4 PICPAR_PROCS=3 go test -race -timeout 30m -count=1 \
    ./internal/par/ ./internal/radix/ ./internal/field/ ./internal/geom/ ./internal/psort/ ./internal/pic/

echo "== golden pins (2-D and 3-D) =="
go test -count=1 -run 'TestGolden' ./internal/pic/

echo "== 3-D smoke =="
go run ./cmd/picsim -dim 3 -mesh 16x16x16 -n 4096 -p 8 -iters 10 -dist irregular -policy dynamic >/dev/null

echo "== strategy comparison (2-D and 3-D: weighted split balances, adaptive selects it) =="
go test -count=1 -run 'TestStrategy' ./internal/pic/
go run ./cmd/picsim -mesh 128x64 -n 4096 -p 8 -iters 15 -dist spike -seed 11 \
    -policy periodic:5 -strategy cost-weighted >/dev/null
go run ./cmd/picsim -dim 3 -mesh 16x16x16 -n 4096 -p 8 -iters 15 -dist spike -seed 11 \
    -policy adaptive:5 >/dev/null

echo "== net smoke (multi-process TCP golden + crash detection + kill-and-recover) =="
sh scripts/netsmoke.sh

echo "== net smoke, 2 workers per rank (golden must not move) =="
PICPAR_PROCS=2 sh scripts/netsmoke.sh

echo "== serve smoke (daemon golden + typed 429 + daemon kill -9 recovery + SIGTERM drain) =="
sh scripts/servesmoke.sh

echo "== traffic gate =="
# -require-baseline: a deleted or missing TRAFFIC_*.json baseline fails CI
# loudly instead of silently re-seeding the comparison.
go run ./cmd/picbench -traffic -require-baseline

echo "== examples smoke =="
go run ./examples/quickstart >/dev/null
go run ./examples/quickstart3d >/dev/null
go run ./examples/netquickstart >/dev/null
go run ./examples/indexing >/dev/null
go run ./examples/skewedload >/dev/null

echo "CI OK"
