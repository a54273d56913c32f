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
      "5957020200000000e3dc7d9d56501000",
      "bad envelope magic" );
    ( "version 1 (trailer over the body only)",
      "59540102000000000515000000000000",
      "unsupported envelope version 1" );
    ( "version 3",
      "595403020100000008aa8b8e0f6abaf901",
      "unsupported envelope version 3" );
    ( "body length one over the cap, header only",
      "5954020301100004",
      "exceeds cap" );
    ( "body length 2^32 - 1, header only",
      "59540203ffffffff",
      "exceeds cap" );
    ( "type 0",
      "59540200000000001efcaefe55501000",
      "unknown envelope type 0" );
    ( "retired type 4 (full-frame deliver)",
      "595402040d00000000030a6672616d652d7a65726fda31969639c76e00",
      "unknown envelope type 4" );
    ( "retired type 10 (subscribe)",
      "5954020a050000000203030407c214d2a6aa2a6120",
      "unknown envelope type 10" );
    ( "retired type 4, empty body",
      "5954020400000000225ae7fe55501000",
      "unknown envelope type 4" );
    ( "retired type 10, empty body",
      "5954020a0000000028e73bff55501000",
      "unknown envelope type 10" );
    ( "type 12, one past the last",
      "5954020c000000002a1658ff55501000",
      "unknown envelope type 12" );
    ( "type 255",
      "595402ff000000009d65b80c56501000",
      "unknown envelope type 255" );
    ( "checksum off by one",
      "5954020200000000212bcbfe55501000",
      "checksum mismatch" );
    ( "trailer with bit 63 set",
      "5954020200000000202bcbfe55501080",
      "checksum mismatch" );
    ( "start retagged as shutdown, trailer kept",
      "5954020701000000086950a8da69baf901",
      "checksum mismatch" );
    ( "post retagged as report, trailer kept",
      "59540206050000000503026162494bfaf856826020",
      "checksum mismatch" );
    ( "post length one byte short, trailer kept",
      "59540203040000000503026162494bfaf856826020",
      "checksum mismatch" );
    ( "start missing its slot count",
      "5954020200000000202bcbfe55501000",
      "truncated (u8)" );
    ( "post frame length past the body",
      "595402030800000000012873686f72742ed5bbb69795ee3f",
      "exceeds remaining" );
    ( "post with a trailing byte",
      "59540203050000000001016678f6e9b2f856826020",
      "1 trailing bytes" );
    ( "hello slot varint 0x80 0x00",
      "5954020104000000800002035c0f7b0ca9232424",
      "non-canonical varint" );
    ( "hello slot varint of nine bytes",
      "595402010b00000081818181818181810102034e77d9e67fe51a15",
      "varint too long" );
    ( "peer-down slot of twelve 0xff bytes",
      "595402050c000000ffffffffffffffffffffffffd732f16814b40309",
      "varint too long" );
    ( "hello missing its seed",
      "595402010200000003108a593047d1923d3d",
      "truncated (u8)" );
    ( "recovered started flag 2",
      "59540209020000000502c23362eed2923d3d",
      "bad started flag 2" );
    ( "deliver-batch declaring 2^20 + 1 records",
      "5954020b030000008180407bba8ee297c7742a",
      "1048577 records" );
    ( "deliver-batch declaring 2^20 records, one present",
      "5954020b0f0000008080400104014d0500000000000000f029e682036cb507",
      "truncated (u8)" );
    ( "deliver-batch record kind 2",
      "5954020b020000000102c8a92e58d3923d3d",
      "unknown record kind 2" );
    ( "digest record checksum with bit 63 set",
      "5954020b0d000000010104014d3412000000000080b2b500ca4052fc3f",
      "out of range" );
    ( "digest record checksum with bit 62 set",
      "5954020b0d000000010104014d0000000000000040946d13f8ef50fc3f",
      "out of range" );
    ( "full record frame past the body",
      "5954020b0a00000001000401096672616d657f06eb1cc053012a",
      "exceeds remaining" );
  ]
