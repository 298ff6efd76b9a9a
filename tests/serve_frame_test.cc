// Wire-level contracts of the serving tier: checksummed framing round
// trips, corruption and truncation surface as kMalformed (never a hang or
// a garbage decode), receives are deadline-bounded, the payload codec is
// strict about short reads and trailing bytes, the CNED_FAULT grammar
// parses deterministically, and a worker answers request types it does
// not serve with kError and keeps serving.

#include "serve/frame.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "datasets/sharded_prototype_store.h"
#include "distances/registry.h"
#include "search/sharded_laesa.h"
#include "serve/fault.h"
#include "serve/shard_snapshot.h"
#include "serve/worker.h"
#include "tests/snapshot_test_util.h"
#include "tests/test_util.h"

namespace cned {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }
  int fds[2] = {-1, -1};
};

TEST(ServeFrameTest, RoundTripsPayloadTypeSequenceAndQueryId) {
  SocketPair sp;
  PayloadWriter w;
  w.U32(7);
  w.U64(123456789012345ull);
  w.I32(-42);
  w.F64(2.5);
  w.Str("hello frame");
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kStepRow, 99, 1234, w.buf.data(),
                        w.buf.size()));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kOk);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kStepRow));
  EXPECT_EQ(f.seq, 99u);
  EXPECT_EQ(f.qid, 1234u);
  PayloadReader r(f.payload);
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_EQ(r.U64(), 123456789012345ull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.F64(), 2.5);
  EXPECT_EQ(r.Str(), "hello frame");
  EXPECT_TRUE(r.Done());
}

TEST(ServeFrameTest, EmptyPayloadRoundTrips) {
  SocketPair sp;
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kPing, 1, 0, nullptr, 0));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kOk);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kPing));
  EXPECT_EQ(f.qid, 0u);
  EXPECT_TRUE(f.payload.empty());
}

TEST(ServeFrameTest, CorruptCrcIsMalformed) {
  SocketPair sp;
  const char payload[] = "payload bytes";
  ASSERT_TRUE(SendFrame(sp.fds[0], FrameType::kReply, 5, 0, payload,
                        sizeof(payload), /*corrupt_crc=*/true));
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
}

TEST(ServeFrameTest, OversizedLengthAndUnknownTypeAreMalformed) {
  {
    // Header whose length field claims > kMaxFramePayload.
    SocketPair sp;
    std::uint32_t header[5] = {kMaxFramePayload + 1,
                               static_cast<std::uint32_t>(FrameType::kReply),
                               1, 0, 0};
    ASSERT_EQ(send(sp.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Frame f;
    EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
  }
  {
    // Type outside the known range.
    SocketPair sp;
    std::uint32_t header[5] = {0, kMaxFrameType + 1, 1, 0, 0};
    ASSERT_EQ(send(sp.fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    Frame f;
    EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kMalformed);
  }
}

TEST(ServeFrameTest, RecvTimesOutInsteadOfHanging) {
  SocketPair sp;
  Frame f;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 50), RecvStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 45);
  EXPECT_LT(elapsed, 5000);
}

TEST(ServeFrameTest, TruncatedFrameThenCloseIsNotOk) {
  SocketPair sp;
  // Half a header, then EOF: the receive must fail (closed), not decode.
  std::uint32_t half[2] = {16, static_cast<std::uint32_t>(FrameType::kReply)};
  ASSERT_EQ(send(sp.fds[0], half, sizeof(half), 0),
            static_cast<ssize_t>(sizeof(half)));
  close(sp.fds[0]);
  sp.fds[0] = -1;
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kClosed);
}

// Regression: the remaining-time-to-ms conversion used to truncate, so a
// sub-millisecond budget became poll(0)=timeout even with a complete frame
// already sitting in the socket buffer. A zero/near-zero timeout must still
// drain buffered data — it means "take what's there", not "fail fast".
TEST(ServeFrameTest, ZeroTimeoutStillDrainsBufferedFrame) {
  SocketPair sp;
  const char payload[] = "already buffered";
  ASSERT_TRUE(
      SendFrame(sp.fds[0], FrameType::kReply, 7, 3, payload, sizeof(payload)));
  Frame f;
  ASSERT_EQ(RecvFrame(sp.fds[1], &f, 0), RecvStatus::kOk);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_EQ(f.qid, 3u);

  // And with nothing buffered, a zero timeout fails fast, not a hang.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 0), RecvStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 1000);
}

TEST(ServeFrameBufferTest, PopsMultipleFramesFromOneAppend) {
  std::vector<char> bytes;
  PayloadWriter w1;
  w1.U64(11);
  PayloadWriter w2;
  w2.Str("second");
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kReply, 1, 100, w1.buf.data(),
                          w1.buf.size()));
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kError, 2, 200, w2.buf.data(),
                          w2.buf.size()));
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kEndSweep, 3, 300, nullptr, 0));

  FrameBuffer fb;
  fb.Append(bytes.data(), bytes.size());
  Frame f;
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
  EXPECT_EQ(f.seq, 1u);
  EXPECT_EQ(f.qid, 100u);
  PayloadReader r1(f.payload);
  EXPECT_EQ(r1.U64(), 11u);
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.qid, 200u);
  PayloadReader r2(f.payload);
  EXPECT_EQ(r2.Str(), "second");
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kEndSweep));
  EXPECT_TRUE(f.payload.empty());
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kNeedMore);
  EXPECT_EQ(fb.buffered_bytes(), 0u);
}

TEST(ServeFrameBufferTest, PartialFrameWaitsAcrossAppends) {
  std::vector<char> bytes;
  PayloadWriter w;
  w.Str("split across reads");
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kStepRow, 9, 42, w.buf.data(),
                          w.buf.size()));

  FrameBuffer fb;
  Frame f;
  // Feed one byte at a time: never a false frame, never a lost byte.
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    fb.Append(&bytes[i], 1);
    ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kNeedMore) << "at byte " << i;
  }
  fb.Append(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(fb.Pop(&f), FrameBuffer::Next::kFrame);
  EXPECT_EQ(f.seq, 9u);
  EXPECT_EQ(f.qid, 42u);
  PayloadReader r(f.payload);
  EXPECT_EQ(r.Str(), "split across reads");
}

TEST(ServeFrameBufferTest, MalformedPoisonsTheStream) {
  FrameBuffer fb;
  std::uint32_t header[5] = {0, kMaxFrameType + 1, 1, 0, 0};
  fb.Append(header, sizeof(header));
  Frame f;
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
  // A valid frame appended afterwards must NOT resynchronise the stream.
  std::vector<char> good;
  ASSERT_TRUE(EncodeFrame(&good, FrameType::kPing, 1, 0, nullptr, 0));
  fb.Append(good.data(), good.size());
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
}

TEST(ServeFrameBufferTest, CrcMismatchIsMalformed) {
  std::vector<char> bytes;
  const char payload[] = "mangle me";
  ASSERT_TRUE(EncodeFrame(&bytes, FrameType::kReply, 1, 1, payload,
                          sizeof(payload), /*corrupt_crc=*/true));
  FrameBuffer fb;
  fb.Append(bytes.data(), bytes.size());
  Frame f;
  EXPECT_EQ(fb.Pop(&f), FrameBuffer::Next::kMalformed);
}

TEST(ServeFrameTest, ClosedPeerIsDetected) {
  SocketPair sp;
  close(sp.fds[0]);
  sp.fds[0] = -1;
  Frame f;
  EXPECT_EQ(RecvFrame(sp.fds[1], &f, 1000), RecvStatus::kClosed);
}

TEST(ServeFrameTest, PayloadReaderRejectsShortAndTrailingBytes) {
  PayloadWriter w;
  w.U32(1);
  w.F64(3.5);
  {
    // Short read: asking for more than is there fails sticky.
    PayloadReader r(w.buf.data(), w.buf.size());
    r.U32();
    r.F64();
    EXPECT_TRUE(r.Done());
    EXPECT_EQ(r.U64(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.Done());
  }
  {
    // Trailing garbage is as malformed as a short read.
    PayloadReader r(w.buf.data(), w.buf.size());
    r.U32();
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.Done());
  }
  {
    // A string whose length prefix overruns the payload.
    PayloadWriter bad;
    bad.U32(1000);  // claims 1000 bytes, none follow
    PayloadReader r(bad.buf.data(), bad.buf.size());
    EXPECT_EQ(r.Str(), "");
    EXPECT_FALSE(r.ok());
  }
}

TEST(ServeFaultTest, ParsesFullGrammar) {
  const FaultSpec spec = FaultSpec::Parse(
      "crash:shard=1,op=step,nth=3|delay:op=eval,every=2,ms=50|drop:|"
      "corrupt:shard=0");
  ASSERT_EQ(spec.directives.size(), 4u);
  EXPECT_EQ(spec.directives[0].kind, FaultDirective::Kind::kCrash);
  EXPECT_EQ(spec.directives[0].shard, 1);
  EXPECT_EQ(spec.directives[0].op, "step");
  EXPECT_EQ(spec.directives[0].nth, 3u);
  EXPECT_EQ(spec.directives[1].kind, FaultDirective::Kind::kDelay);
  EXPECT_EQ(spec.directives[1].every, 2u);
  EXPECT_EQ(spec.directives[1].ms, 50u);
  EXPECT_EQ(spec.directives[1].shard, -1);
  EXPECT_EQ(spec.directives[2].kind, FaultDirective::Kind::kDrop);
  EXPECT_EQ(spec.directives[3].kind, FaultDirective::Kind::kCorrupt);
  EXPECT_EQ(spec.directives[3].shard, 0);
  EXPECT_TRUE(FaultSpec::Parse("").empty());
}

TEST(ServeFaultTest, RejectsUnknownKindsKeysOpsAndValues) {
  EXPECT_THROW(FaultSpec::Parse("explode:shard=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:when=now"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:op=query"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("delay:ms=abc"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:shard="), std::invalid_argument);
}

TEST(ServeFaultTest, MutationOpsParseAndTheRetiredScanOpIsRejected) {
  const FaultSpec spec = FaultSpec::Parse(
      "mangle:shard=0,op=insert,replica=1,nth=1|drop:op=remove,every=2");
  ASSERT_EQ(spec.directives.size(), 2u);
  EXPECT_EQ(spec.directives[0].op, "insert");
  EXPECT_EQ(spec.directives[0].replica, 1);
  EXPECT_EQ(spec.directives[1].op, "remove");
  EXPECT_THROW(FaultSpec::Parse("crash:op=scan"), std::invalid_argument);
}

TEST(ServeFaultTest, NthFiresExactlyOnceAndCountsPerDirective) {
  FaultInjector inj(FaultSpec::Parse("crash:op=step,nth=3"), /*shard=*/0);
  EXPECT_FALSE(inj.OnRequest("step").crash);
  EXPECT_FALSE(inj.OnRequest("eval").crash);  // non-matching: no count
  EXPECT_FALSE(inj.OnRequest("step").crash);
  EXPECT_TRUE(inj.OnRequest("step").crash);  // 3rd matching request
  EXPECT_FALSE(inj.OnRequest("step").crash);
}

TEST(ServeFaultTest, EveryFiresPeriodicallyAndShardFilters) {
  FaultInjector hit(FaultSpec::Parse("delay:shard=2,every=2,ms=7"),
                    /*shard=*/2);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 0u);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 7u);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 0u);
  EXPECT_EQ(hit.OnRequest("eval").delay_ms, 7u);

  FaultInjector miss(FaultSpec::Parse("delay:shard=2,every=1,ms=7"),
                     /*shard=*/1);
  EXPECT_EQ(miss.OnRequest("eval").delay_ms, 0u);

  // No nth/every: fires on every match.
  FaultInjector always(FaultSpec::Parse("corrupt:op=eval"), /*shard=*/0);
  EXPECT_TRUE(always.OnRequest("eval").corrupt);
  EXPECT_TRUE(always.OnRequest("eval").corrupt);
  EXPECT_FALSE(always.OnRequest("step").corrupt);
}

TEST(ServeFaultTest, ReplicaSelectorTargetsOneGroupMember) {
  const FaultSpec spec = FaultSpec::Parse("crash:op=step,nth=1,replica=0");
  ASSERT_EQ(spec.directives.size(), 1u);
  EXPECT_EQ(spec.directives[0].replica, 0);

  // Same spec, same shard, different group ordinal: only replica 0 fires.
  FaultInjector primary(spec, /*shard=*/1, /*replica=*/0);
  FaultInjector standby(spec, /*shard=*/1, /*replica=*/1);
  EXPECT_TRUE(primary.OnRequest("step").crash);
  EXPECT_FALSE(standby.OnRequest("step").crash);

  // No replica key: -1, fires on every member (whole-group faults).
  const FaultSpec all = FaultSpec::Parse("crash:op=step,nth=1");
  EXPECT_EQ(all.directives[0].replica, -1);
  FaultInjector m0(all, /*shard=*/0, /*replica=*/0);
  FaultInjector m1(all, /*shard=*/0, /*replica=*/1);
  EXPECT_TRUE(m0.OnRequest("step").crash);
  EXPECT_TRUE(m1.OnRequest("step").crash);

  EXPECT_THROW(FaultSpec::Parse("crash:replica="), std::invalid_argument);
}

TEST(ServeFaultTest, MangleKindFlagsPayloadCorruption) {
  FaultInjector inj(FaultSpec::Parse("mangle:op=step,nth=2,replica=1"),
                    /*shard=*/3, /*replica=*/1);
  const auto first = inj.OnRequest("step");
  EXPECT_FALSE(first.mangle);
  const auto second = inj.OnRequest("step");
  EXPECT_TRUE(second.mangle);
  // Mangle is byte-corruption with a *valid* CRC: distinct from corrupt.
  EXPECT_FALSE(second.corrupt);
  EXPECT_FALSE(second.crash);
}

TEST(ServeWorkerTest, RetiredFrameTypesGetErrorAndTheWorkerServesOn) {
  // Types 2 and 5 carried the retired lazy sweep, type 12 the retired
  // delta scan. They still pass the frame layer, so a worker must answer
  // each with kError (echoing its sequence and query id) and keep serving:
  // the next ping on the same connection is answered normally.
  TempDir dir;
  const ShardedPrototypeStore store(Words(40, 8600), 2);
  const ShardedLaesa index(store, MakeDistance("dE"), 4);
  SaveServingSnapshot(index, dir.path);
  WorkerConfig config;
  config.store_path = ShardStorePath(dir.path, 0);
  config.index_path = ShardIndexPath(dir.path, 0);
  config.distance = "dE";

  SocketPair sp;
  int exit_code = -1;
  std::thread worker([&] { exit_code = RunShardWorker(sp.fds[1], config); });
  // EXPECTs only from here to the join: an ASSERT would return past it.
  std::uint32_t seq = 0;
  for (const std::uint32_t retired : {2u, 5u, 12u}) {
    PayloadWriter w;
    w.Str("casa");
    w.U32(0);
    ++seq;
    EXPECT_TRUE(SendFrame(sp.fds[0], static_cast<FrameType>(retired), seq,
                          /*qid=*/7, w.buf.data(), w.buf.size()));
    Frame f;
    EXPECT_EQ(RecvFrame(sp.fds[0], &f, 5000), RecvStatus::kOk);
    EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kError));
    EXPECT_EQ(f.seq, seq);
    EXPECT_EQ(f.qid, 7u);
    PayloadReader r(f.payload);
    EXPECT_EQ(r.Str(), "unexpected frame type " + std::to_string(retired));
    EXPECT_TRUE(r.Done());

    ++seq;
    EXPECT_TRUE(SendFrame(sp.fds[0], FrameType::kPing, seq, /*qid=*/0,
                          nullptr, 0));
    EXPECT_EQ(RecvFrame(sp.fds[0], &f, 5000), RecvStatus::kOk);
    EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kReply));
    EXPECT_EQ(f.seq, seq);
    PayloadReader ping(f.payload);
    EXPECT_EQ(ping.U64(), 0u);  // shard id
    EXPECT_EQ(ping.U64(), 0u);  // replica id
    EXPECT_TRUE(ping.Done());
  }
  EXPECT_TRUE(
      SendFrame(sp.fds[0], FrameType::kShutdown, ++seq, 0, nullptr, 0));
  Frame bye;
  EXPECT_EQ(RecvFrame(sp.fds[0], &bye, 5000), RecvStatus::kOk);
  shutdown(sp.fds[0], SHUT_WR);  // EOF ends the loop even if a send failed
  worker.join();
  EXPECT_EQ(exit_code, 0);
}


TEST(ServeWorkerTest, InvalidInsertsGetErrorAndChangeNothing) {
  // A kInsert is validated before it touches the shard: a column that is
  // not num_pivots long, an id that is not this shard's (or skips its next
  // slot), and an id at the sweep's 32-bit limit each get kError, and the
  // next valid insert still lands in delta slot 0.
  TempDir dir;
  const ShardedPrototypeStore store(Words(40, 8700), 2);
  const ShardedLaesa index(store, MakeDistance("dE"), 4);
  SaveServingSnapshot(index, dir.path);
  WorkerConfig config;
  config.store_path = ShardStorePath(dir.path, 0);
  config.index_path = ShardIndexPath(dir.path, 0);
  config.distance = "dE";
  const std::uint64_t n = store.size();

  SocketPair sp;
  int exit_code = -1;
  std::thread worker([&] { exit_code = RunShardWorker(sp.fds[1], config); });
  // EXPECTs only from here to the join: an ASSERT would return past it.
  std::uint32_t seq = 0;
  const auto insert = [&](std::uint64_t id, std::size_t columns, Frame* f) {
    PayloadWriter w;
    w.U64(id);
    w.Str("casa");
    w.U64(columns);
    for (std::size_t p = 0; p < columns; ++p) w.F64(1.0 + p);
    ++seq;
    EXPECT_TRUE(SendFrame(sp.fds[0], FrameType::kInsert, seq, /*qid=*/0,
                          w.buf.data(), w.buf.size()));
    EXPECT_EQ(RecvFrame(sp.fds[0], f, 5000), RecvStatus::kOk);
    EXPECT_EQ(f->seq, seq);
  };
  struct Bad {
    std::uint64_t id;
    std::size_t columns;
    const char* why;
  };
  // Shard 0 of 2 owns insert ids n, n + 2, n + 4, ...
  for (const Bad& bad : {Bad{n, 3, "entries, want 4"},
                         Bad{n + 1, 4, "is not this shard's next insert id"},
                         Bad{0, 4, "is not this shard's next insert id"},
                         Bad{n + 2, 4, "is not this shard's next insert id"},
                         Bad{n + (std::uint64_t{1} << 31), 4,
                             "exceed the sweep limit"}}) {
    Frame f;
    insert(bad.id, bad.columns, &f);
    EXPECT_EQ(f.type, static_cast<std::uint32_t>(FrameType::kError))
        << bad.why;
    PayloadReader r(f.payload);
    EXPECT_NE(r.Str().find(bad.why), std::string::npos) << bad.why;
  }
  Frame ok;
  insert(n, 4, &ok);
  EXPECT_EQ(ok.type, static_cast<std::uint32_t>(FrameType::kReply));
  PayloadReader count(ok.payload);
  EXPECT_EQ(count.U64(), 1u);  // the delta holds exactly the valid insert
  EXPECT_TRUE(count.Done());

  EXPECT_TRUE(
      SendFrame(sp.fds[0], FrameType::kShutdown, ++seq, 0, nullptr, 0));
  Frame bye;
  EXPECT_EQ(RecvFrame(sp.fds[0], &bye, 5000), RecvStatus::kOk);
  shutdown(sp.fds[0], SHUT_WR);
  worker.join();
  EXPECT_EQ(exit_code, 0);
}

}  // namespace
}  // namespace cned
