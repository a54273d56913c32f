(* Hostile envelopes: a regression corpus for [Envelope.next].

   Each entry is a name, the bytes fed to a fresh stream in hex, and a
   fragment of the [Envelope_error] message they must be rejected
   with.  The fragment pins the check that catches the envelope, so
   one that starts failing at an earlier check (on its trailer, say,
   after a codec change) fails the test instead of silently losing
   coverage.  The bytes, trailers included, were computed from the
   format's definition, not by the library's encoder.

   The two header-only entries declare a body over the cap: they must
   be rejected from the eight header bytes, before any body byte is
   buffered.  The batch entries declaring 2^20 records carry at most
   one: the decoder must stop at the records present rather than
   materialize the count. *)

let envelopes =
  [
    ( "bad magic",
      "59570102000000000515000000000000",
      "bad envelope magic" );
    ( "version 2",
      "59540202000000000515000000000000",
      "unsupported envelope version 2" );
    ( "body length one over the cap, header only",
      "5954010301100004",
      "exceeds cap" );
    ( "body length 2^32 - 1, header only",
      "59540103ffffffff",
      "exceeds cap" );
    ( "type 0",
      "59540100000000000515000000000000",
      "unknown envelope type 0" );
    ( "retired type 4 (full-frame deliver)",
      "595401040d00000000030a6672616d652d7a65726fca390570475c1537",
      "unknown envelope type 4" );
    ( "retired type 10 (subscribe)",
      "5954010a05000000020303040700de6ade23000000",
      "unknown envelope type 10" );
    ( "retired type 4, empty body",
      "59540104000000000515000000000000",
      "unknown envelope type 4" );
    ( "retired type 10, empty body",
      "5954010a000000000515000000000000",
      "unknown envelope type 10" );
    ( "type 12, one past the last",
      "5954010c000000000515000000000000",
      "unknown envelope type 12" );
    ( "type 255",
      "595401ff000000000515000000000000",
      "unknown envelope type 255" );
    ( "checksum off by one",
      "59540102000000000615000000000000",
      "checksum mismatch" );
    ( "trailer with bit 63 set",
      "59540102000000000515000000000080",
      "checksum mismatch" );
    ( "post frame length past the body",
      "595401030800000000012873686f72749ad81e020b4e1000",
      "exceeds remaining" );
    ( "post with a trailing byte",
      "595401030500000000010166780dcb4dde23000000",
      "1 trailing bytes" );
    ( "hello slot varint 0x80 0x00",
      "595401010400000080000203463a6e2801000000",
      "non-canonical varint" );
    ( "hello slot varint of nine bytes",
      "595401010b00000081818181818181810102035d29b6732be1ed2a",
      "varint too long" );
    ( "peer-down slot of twelve 0xff bytes",
      "595401050c000000ffffffffffffffffffffffffc56c7153cd4bb720",
      "varint too long" );
    ( "hello missing its seed",
      "5954010102000000031032e84e0000000000",
      "truncated (u8)" );
    ( "recovered started flag 2",
      "5954010902000000050262e84e0000000000",
      "bad started flag 2" );
    ( "deliver-batch declaring 2^20 + 1 records",
      "5954010b03000000818040dc04900900000000",
      "1048577 records" );
    ( "deliver-batch declaring 2^20 records, one present",
      "5954010b0f0000008080400104014d0500000000000000c555f1cbe654c900",
      "truncated (u8)" );
    ( "deliver-batch record kind 2",
      "5954010b020000000102e6e74e0000000000",
      "unknown record kind 2" );
    ( "digest record checksum with bit 63 set",
      "5954010b0d000000010104014d3412000000000080c98e72435a163401",
      "out of range" );
    ( "digest record checksum with bit 62 set",
      "5954010b0d000000010104014d0000000000000040ab46857109153401",
      "out of range" );
    ( "full record frame past the body",
      "5954010b0a00000001000401096672616d65a5f90389990d353d",
      "exceeds remaining" );
  ]
