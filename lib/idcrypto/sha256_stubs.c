/* SHA-256 block compression (FIPS 180-4 §6.2.2), portable C.

   [idcrypto_sha256_compress h b off] absorbs the 64-byte block at
   [b.[off] .. b.[off + 63]] into the chaining state [h], an OCaml int
   array of 8 words each holding a 32-bit value. The caller checks the
   bounds; this function allocates nothing and never raises, so OCaml
   calls it as a [@@noalloc] external. */

#include <stdint.h>
#include <caml/mlvalues.h>

static const uint32_t k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

/* One round on the working variables a..h, named by position: rather
   than shifting all eight along, the caller rotates the names. Ch and
   Maj are in their cheaper equivalent forms: g ^ (e & (f ^ g)) and
   (a & b) | (c & (a | b)). */
#define ROUND(a, b, c, d, e, f, g, h, i)                                    \
  do {                                                                      \
    uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))              \
                  + (g ^ (e & (f ^ g))) + k[i] + w[i];                      \
    uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))                  \
                  + ((a & b) | (c & (a | b)));                              \
    d += t1;                                                                \
    h = t1 + t2;                                                            \
  } while (0)

value idcrypto_sha256_compress(value h, value b, value off)
{
  const unsigned char *p = (const unsigned char *)Bytes_val(b) + Long_val(off);
  uint32_t w[64];
  uint32_t s[8];
  int i;

  for (i = 0; i < 16; i++)
    w[i] = ((uint32_t)p[4 * i] << 24) | ((uint32_t)p[4 * i + 1] << 16)
           | ((uint32_t)p[4 * i + 2] << 8) | (uint32_t)p[4 * i + 3];
  for (i = 16; i < 64; i++) {
    uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  for (i = 0; i < 8; i++) s[i] = (uint32_t)Long_val(Field(h, i));

  {
    uint32_t a = s[0], bb = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], hh = s[7];
    for (i = 0; i < 64; i += 8) {
      ROUND(a, bb, c, d, e, f, g, hh, i);
      ROUND(hh, a, bb, c, d, e, f, g, i + 1);
      ROUND(g, hh, a, bb, c, d, e, f, i + 2);
      ROUND(f, g, hh, a, bb, c, d, e, i + 3);
      ROUND(e, f, g, hh, a, bb, c, d, i + 4);
      ROUND(d, e, f, g, hh, a, bb, c, i + 5);
      ROUND(c, d, e, f, g, hh, a, bb, i + 6);
      ROUND(bb, c, d, e, f, g, hh, a, i + 7);
    }
    s[0] += a; s[1] += bb; s[2] += c; s[3] += d;
    s[4] += e; s[5] += f; s[6] += g; s[7] += hh;
  }

  /* Immediate ints: a plain store needs no write barrier. */
  for (i = 0; i < 8; i++) Field(h, i) = Val_long((intnat)s[i]);
  return Val_unit;
}
