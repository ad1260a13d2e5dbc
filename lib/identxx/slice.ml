type t = int

let none = -1
let v start stop = (start lsl 32) lor stop
let start f = f lsr 32
let stop f = f land 0xffff_ffff
let length f = stop f - start f
let sub s f = String.sub s (start f) (length f)
