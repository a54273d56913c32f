(* Hostile Wire frames: a regression corpus for [Wire.of_frame].

   Each entry is a name, the frame in hex, and a fragment of the
   [Wire.Decode_error] message it must be rejected with.  The fragment
   pins the check that catches the frame, so a frame that starts
   failing at an earlier check (on its checksum, say, after a codec
   change) fails the test instead of silently losing coverage.  The
   bytes, trailers included, were computed from the format's
   definition, not by the library's encoder.

   Fuzzing the decoder found two defects that entries here pin.  The
   entries declaring 2^24 elements in a frame of about 24 bytes each
   allocated a 2^24-slot array (128 MiB) before counts were checked
   against the bytes that remain.  "trailer with bit 63 set" was
   accepted while the trailer was compared as a 63-bit [int].

   The "retired tag" entries were built on item tags 2 (packed
   sharing) and 7 (bigint array), which the format once decoded and no
   code ever sent.  Both tags are now unassigned, so each is pinned to
   the unknown-tag rejection; the checks they first pinned (counts
   against the remaining bytes, non-canonical varints, field range)
   stay covered by the tag-1 and tag-3 entries. *)

let frames =
  [
    ( "field vector declaring 2^24 elements, one present",
      "5957010c017301018080800807000000d8d1a719b0a67605",
      "exceeds remaining" );
    ( "field vector declaring 2^24+1 elements",
      "5957010c017301018180800807000000b7fe8881b6a67605",
      "exceeds limit" );
    ( "retired tag 2: sharing declaring 2^24 shares",
      "5957010d017301020380808008070000006c77087769e65d29",
      "unknown item tag 2" );
    ( "ciphertext array declaring 2^24 blobs",
      "5957010a0173010380808008017818de6e22bc66353d",
      "exceeds remaining" );
    ( "retired tag 7: bigint array declaring 2^24 values",
      "59570109017301078080800800db504252ed76f901",
      "unknown item tag 7" );
    ( "4096 items declared, one present",
      "5957010e0173802001020100000002000000358ad7c139d87d2f",
      "exceeds remaining" );
    ( "4097 items declared",
      "5957010e0173812001020100000002000000942f89c9191dd82f",
      "exceeds limit" );
    ( "item count at the 8-byte varint maximum",
      "595701140173ffffffffffffff7f010201000000020000005574370b31693d0e",
      "exceeds limit" );
    ( "step length prefix past the payload",
      "59570107c8017374657000762132dcce860000",
      "exceeds remaining" );
    ( "blob length prefix past the payload and its trailer",
      "59570126017301040129707070707070707070707070707070707070707070707070707070707070707082c0ef4dbd615c35",
      "exceeds remaining" );
    ( "blob length prefix reaching into the trailer",
      "5957012601730104012170707070707070707070707070707070707070707070707070707070707070707ae0315f0103bf1d",
      "payload does not end" );
    ( "frame length prefix over max_frame_len",
      "595701818080200173000000000000000000",
      "exceeds max_frame_len" );
    ( "frame length prefix past the frame",
      "5957016401730089228e0900000000",
      "exceeds remaining" );
    ( "frame length prefix one short",
      "5957010c01730101020100000002000000c862c8174eca5d29",
      "trailer" );
    ( "overlong step length varint (0x81 0x00)",
      "595701048100730051bc6e2801000000",
      "non-canonical varint" );
    ( "overlong frame length varint",
      "595701830001730089228e0900000000",
      "non-canonical varint" );
    ( "nine-byte item count varint",
      "5957010b01738180808080808080008ab8cf0633d77729",
      "varint too long" );
    ( "retired tag 2: sharing degree 0x80 0x00",
      "5957010b0173010280000105000000245020e2c0707729",
      "unknown item tag 2" );
    ( "field element = p",
      "595701090173010101ffffff7f6a4a4341ed76f901",
      "out of range" );
    ( "field element = 2^32 - 1",
      "595701090173010101ffffffffea4a4341ed76f901",
      "out of range" );
    ( "retired tag 2: share = p + 1",
      "5957010a01730102000100000080b95ce40bbb66353d",
      "unknown item tag 2" );
    ( "retired tag 2: sharing degree = share count",
      "5957010e017301020202010000000200000095fe3272b4695e02",
      "unknown item tag 2" );
    ( "retired tag 2: sharing with no shares",
      "59570106017301020000b86065f357040000",
      "unknown item tag 2" );
    ( "retired tag 7: bigint magnitude with a leading zero byte",
      "59570109017301070101020005ca12094bed76f901",
      "unknown item tag 7" );
    ( "retired tag 7: negative bigint with a leading zero byte",
      "5957010a0173010701020300ff019df02716bc66353d",
      "unknown item tag 7" );
    ( "retired tag 7: bigint sign 1, empty magnitude",
      "595701070173010701010003004979a6860000",
      "unknown item tag 7" );
    ( "retired tag 7: bigint sign byte 3",
      "5957010801730107010301050308d7af284e1000",
      "unknown item tag 7" );
    ( "item tag 0",
      "5957010501730100000aa88fde23000000",
      "unknown item tag" );
    ( "item tag 8",
      "59570105017301080002a98fde23000000",
      "unknown item tag" );
    ( "message shorter than its payload (trailing byte)",
      "5957010e017301010201000000020000000038f643e1747f5b02",
      "payload does not end" );
    ( "field vector ending inside the trailer",
      "5957010b0173010102010000000200c8749272a0707729",
      "payload does not end" );
    ( "checksum off by one",
      "5957010d01730101020100000002000000c962c8174eca5d29",
      "checksum mismatch" );
    ( "trailer with bit 63 set",
      "5957010d01730101020100000002000000c862c8174eca5da9",
      "checksum mismatch" );
    ( "trailer cut short",
      "5957010d01730101020100000002000000c862c8174eca5d",
      "trailer" );
    ( "bad magic",
      "5958010301730089228e0900000000",
      "bad magic" );
    ( "version 2",
      "5957020301730089228e0900000000",
      "unsupported version" );
    ( "empty input",
      "",
      "truncated frame" );
    ( "magic only",
      "5957",
      "truncated frame" );
  ]
