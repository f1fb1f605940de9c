"""Golden digests of the raster domain layer: `gen_glyph_domain` and each
raster transform at its parameter edges.

Each digest is sha256 over the float32 sample bytes followed by the int64
label bytes. Rewrites of the generator or the transforms must leave these
bytes unchanged; a change that alters them on purpose has to update the
digests, bump `experiment._DOMAIN_CACHE_VERSION` (so cached domains are
rebuilt, not reused) and say why. The digests were taken with numpy 2.4 on
x86-64.
"""

import hashlib

import pytest

from galasim import (TransformSpec, apply_transform_chain, gen_glyph_domain)
from galasim.experiment import _DOMAIN_CACHE_VERSION

CANVASES = (8, 9, 16, 23)
GLYPH_SHAPES = ((2, 8, 0), (6, 13, 1), (11, 8, 2), (3, 9, 7))  # (C, K, seed)


def glyph_cases():
    return [("glyph", c, k, canvas, ch, seed)
            for canvas in CANVASES for ch in (1, 3) for c, k, seed in GLYPH_SHAPES]


def transform_cases():
    cases = []
    for canvas in CANVASES:
        for ch in (1, 3):
            for amp in (0.05, 0.5, 1.0):
                cases.append(("background_overlay", canvas, ch, {"noise_amplitude": amp}))
            for inner in sorted({1, 2, canvas // 2, canvas - 1, canvas}):
                cases.append(("scale_recenter", canvas, ch, {"inner": inner}))
        for px in range(1, (canvas + 1) // 2):
            cases.append(("channel_stack", canvas, 1, {"shift_px": px}))
    return cases


# transform chains as the INI suites write them, on both seeds
CHAINS = {
    "overlay_then_stack": (TransformSpec("background_overlay", {"noise_amplitude": 0.3}, seed=1),
                           TransformSpec("channel_stack", {"shift_px": 1})),
    "recenter_then_stack": (TransformSpec("scale_recenter", {"inner": 12}),
                            TransformSpec("channel_stack", {"shift_px": 2})),
    "stack_then_overlay": (TransformSpec("channel_stack", {"shift_px": 3}),
                           TransformSpec("background_overlay", {"noise_amplitude": 0.2}, seed=2),
                           TransformSpec("scale_recenter", {"inner": 9})),
}


def digest(d) -> str:
    h = hashlib.sha256(d.samples.tobytes())
    h.update(d.labels.tobytes())
    return h.hexdigest()


def case_id(case) -> str:
    return "-".join(str(v) if not isinstance(v, dict) else
                    ",".join(f"{k}={x}" for k, x in v.items()) for v in case)


GLYPH_DIGESTS = {
    "glyph-2-8-8-1-0": "363a7717f77f4a0786be5d0cf6b69eaabcffc9e7c5242292a71e9e0f089114d4",
    "glyph-6-13-8-1-1": "df243782acffedd6ad27be3b89279afb23b2364848b69f2f650bc6c1c9d6104f",
    "glyph-11-8-8-1-2": "9f9c66cfef77cbb820fe02c72ecce92d189a0daddb148aa68e31cb306fcbcc43",
    "glyph-3-9-8-1-7": "36fa7d29dce9b53a4cc448147d61fee3ef95f559fcd8dac160d0eeb379e43581",
    "glyph-2-8-8-3-0": "b52244dc7d58b334eb8ccefc791e9587dab9d6445226bb06d057e82ad4dbf803",
    "glyph-6-13-8-3-1": "8551deda5d434c85397efbd6ac33c86c502d850372f3894a902ab7d13ce46046",
    "glyph-11-8-8-3-2": "499012763efc657cf47f10e084971476e485c8186fbe79ae45ea9cd28a2d2923",
    "glyph-3-9-8-3-7": "e5a81feef2cc714ca7990bfd09bfbe2a93416992cdfe5124dc3762ae2d2c0b16",
    "glyph-2-8-9-1-0": "7d43b582c32e1b6eb283e2389a441c48b3a8b0f6ced7e167ff26e4df9c38c5ef",
    "glyph-6-13-9-1-1": "74a5b6818fd955c3db5ff58ba97080f00075ef64ba760b24d086c79aac23f69f",
    "glyph-11-8-9-1-2": "0704c7cca026970b34e05863a331453e494594d39350855012a5d31e6fc78f16",
    "glyph-3-9-9-1-7": "efd459cbdcac00f2230b01a6e925027b0358455a905c31127d6285f535f60243",
    "glyph-2-8-9-3-0": "5f322b85ea047b9e961db5a71508442eb2bbcbc5f6fff1c1e0f5ec527f19fba6",
    "glyph-6-13-9-3-1": "2ed874cf4c5917490501adf6b775ba3ba2fc9c8269e5abeaff7f32d849d47179",
    "glyph-11-8-9-3-2": "e2a07db3e95363a9e921bdc5d56fb371d6c37cb3d01fdbad3d450eac06195af9",
    "glyph-3-9-9-3-7": "925a5265e354c3d7c539d86119f6ff41b9ef2e4eee5b830fed10dd05e3e849de",
    "glyph-2-8-16-1-0": "c98f8a5b90ad51ab502466d2346aa7f5dd69f81da48b02ce643e16b94b83cd03",
    "glyph-6-13-16-1-1": "adc33b5170b77c6a6fed660671fe5c17b0dab3241316a71aea972f23df6e2b02",
    "glyph-11-8-16-1-2": "bdde6cfa622b4dffeeaa2cee70c131f9b0c9e3c06c29dc79f8c9bafc851f72ad",
    "glyph-3-9-16-1-7": "ebc257203d5535a4ab49d9b8f027e6bb30cf017235326362252516c88da01d6f",
    "glyph-2-8-16-3-0": "1cca7418b80fe5bd8d2ef32811941a36ee3b6ea06c119bb7f376187b4def7710",
    "glyph-6-13-16-3-1": "dc84112f58d1a2bfb8b919c2c28b132b7ef3072a90ab36cb98736b219cde8ed6",
    "glyph-11-8-16-3-2": "3de6ffa16aa56584611871079727be2d7fb5025ad3e20d2f791060cd2d561d08",
    "glyph-3-9-16-3-7": "b41e0ef5651a82bae6ade3b4b27a00d5bb9e9726963d1be4c685b4ddef0f59ae",
    "glyph-2-8-23-1-0": "d93e9f13fd827b40fddda34546b403b3c6427f8d150883dc3d621d3b9e7102b9",
    "glyph-6-13-23-1-1": "53fc11100a4cd3aaa20bfa6dcfe23956e0d28e15b341aae3d1cfa5d2a712c181",
    "glyph-11-8-23-1-2": "68cef462eaaca40f62f241bab760a0240296534f3f0519df0d7b511e96f240e1",
    "glyph-3-9-23-1-7": "d09dcbeca2a468c0f0ed397e4a03463f838bd6a8e9f0f00bdf9c7db266cfc19a",
    "glyph-2-8-23-3-0": "05681597009685b69fc44333e8fb38fc35aa06b51c36af3c66724ef8073f61c1",
    "glyph-6-13-23-3-1": "fe193e4375cb6e74aac2caf9e55d94b12af795fa2a09bcaad7fc3f323ab40d99",
    "glyph-11-8-23-3-2": "66f2f0df4bcb1f3f8ccfc3283242fb704031036f7f6c0819c00a4c55356ec391",
    "glyph-3-9-23-3-7": "13a046199eafea77e863bea739242bdbc845325d94a9aa2915eadae405a91d5a",
}

TRANSFORM_DIGESTS = {
    "background_overlay-8-1-noise_amplitude=0.05-s0": "7907bb89fb4162dabf2d9aa8e0d54e8efa0fda2038c21c55a432b6f126bfbfe3",
    "background_overlay-8-1-noise_amplitude=0.05-s11": "f32938e92271adfb9eb70b2d875f67e73cbf3694544d2b8d7578d0bae2860567",
    "background_overlay-8-1-noise_amplitude=0.5-s0": "1e9c5d17a65682c8337a3661c57db847ea746dc7ff9e6c20e034ee808b8cd3f4",
    "background_overlay-8-1-noise_amplitude=0.5-s11": "82774718ab9fa4ec5728b7de99d2c609af2cc8a3589c350eeca13377d8b59095",
    "background_overlay-8-1-noise_amplitude=1.0-s0": "47b60500d1a8d9e67948ed5a8eca7bc3d874ca9eeca9e0335d7c2928495d5c76",
    "background_overlay-8-1-noise_amplitude=1.0-s11": "48c009b48ca469e2dc41b7459d862ff1e1cb299bd8321c95dd17e051e237cf25",
    "scale_recenter-8-1-inner=1-s0": "ffffea50d69504e3d4480fb489e11a65127fe3242268a9a260dc3a4daa33af68",
    "scale_recenter-8-1-inner=1-s11": "1d6054a7f711ce780e6bb95d3c7857c6d3d7c0557e8c9cbb604dddeb576dcd11",
    "scale_recenter-8-1-inner=2-s0": "dc799e91b54f9ef402ba41043bfaa9d1acb26ce269108e7264d776a0410d9c15",
    "scale_recenter-8-1-inner=2-s11": "4bd74a95701aa4fbe582b91ee54d04f7768e0032037f7525acf35a7f3980157e",
    "scale_recenter-8-1-inner=4-s0": "89d64ba398333dd1932be876937262967f6e87049c84ed4f82a918f868d8704a",
    "scale_recenter-8-1-inner=4-s11": "a39d254ef03a7fe0bf76f1d3ba28816110f8210cba22646d71ebe2ff06739ebc",
    "scale_recenter-8-1-inner=7-s0": "63014336879dc299d34eb4ea632de8dba977acf615c2cc4bfab5ce18d4390542",
    "scale_recenter-8-1-inner=7-s11": "5946a74ad3fd1ee5c8c2b2c68356eabef4dfd48d090d6b5c1a7699e15918aa1e",
    "scale_recenter-8-1-inner=8-s0": "4d301227d21aa9886e8fa7433c7a8d0c714fa2a3d7a6924cc23e88d437997f63",
    "scale_recenter-8-1-inner=8-s11": "90b92bee1ddd1d63a786097d2179c154c0c8ffc7fbbdb02f98a81b3d31ceb1f5",
    "background_overlay-8-3-noise_amplitude=0.05-s0": "3220357014339a760e52afc57b35559f735b15185f2fffd902436090500bdf01",
    "background_overlay-8-3-noise_amplitude=0.05-s11": "9dfcd8eb418a0f4f9996c3f22f49ce6681616fde6e2abb24dffa981888d51669",
    "background_overlay-8-3-noise_amplitude=0.5-s0": "c6c0fd1b9fc770718a39b9efaf5f0708a78510500547aa3cf4e216af0e43bf32",
    "background_overlay-8-3-noise_amplitude=0.5-s11": "58fcd75e0309e4161b08900a6eb26f141885efff94861a9ed5ab230cc0cf1b34",
    "background_overlay-8-3-noise_amplitude=1.0-s0": "9f903bb04ff185162d6b9cc129cd112b2d2431d444ed014e5732254b0ea69037",
    "background_overlay-8-3-noise_amplitude=1.0-s11": "c6ddc97a0dc8c89db08a4e7d9c619b01ed9a8a58ccab4410f97d727dae3ad21d",
    "scale_recenter-8-3-inner=1-s0": "62d621eb8feedca734579a92fbfb0e0fe431131150f2200bb1caf4f94ae9ba02",
    "scale_recenter-8-3-inner=1-s11": "c6bb1f161fa24a8dc8da9eeb84d6b27184f2a4e498718810a17c8b888e9c7461",
    "scale_recenter-8-3-inner=2-s0": "c40c2b4ff5ed42474abb42e042460c49539f011ece54f8b3e4afb1db19a440b7",
    "scale_recenter-8-3-inner=2-s11": "e94412ecb486f4eafcc5f95e20c0476b5234e72772a21316aa7fdfbfbf9e76bc",
    "scale_recenter-8-3-inner=4-s0": "7094e99db3b0ec80a9b969a79b1eaa066f1686b0776f9eb0c7a73d97cd7972a5",
    "scale_recenter-8-3-inner=4-s11": "eb663b35861e22267fcf2af4b581ba0c54015ec692d2b1fb08ebccb116021d09",
    "scale_recenter-8-3-inner=7-s0": "be3f4d8851dd22f0d062444bfe2069ed823d57810e67be8e53ebe1a6d824a2bb",
    "scale_recenter-8-3-inner=7-s11": "114b85c1740ca4a75c851a3d917d2c5108cba64ecdf21703243a6cb5fb6be55d",
    "scale_recenter-8-3-inner=8-s0": "c21bb4000a752cdddedd4042b29ca1286f23490c991b834e066c8f1502b9d45f",
    "scale_recenter-8-3-inner=8-s11": "69247fcce039f28c64bd8e0d25f59aaae0cab072fe72db45436694001829a003",
    "channel_stack-8-1-shift_px=1-s0": "379e443db9bc8657bfde18835b1a430418b653d47941cd86cf8b773334945135",
    "channel_stack-8-1-shift_px=1-s11": "9b46a6d4489418effa876f7e1766c2fa78f938023930db56b13832f270799ff9",
    "channel_stack-8-1-shift_px=2-s0": "731917155354bc21da1d2f74aec90446212dc0ee955cc67e0eedb4c5475d9f0c",
    "channel_stack-8-1-shift_px=2-s11": "6580c4d2ece894dfa624500b73a9824115cb13c62e4e0dec9dbdf08bcb092fad",
    "channel_stack-8-1-shift_px=3-s0": "7ee274741b4f65f60b9c3bf3763abdc25d65cf3140d2aca56441894a3612beb9",
    "channel_stack-8-1-shift_px=3-s11": "67181b360a66b35d790a2b70b3e1186409f82382d23c00bd7e9f637d17248593",
    "background_overlay-9-1-noise_amplitude=0.05-s0": "5fa1596e9da64587836bfa49145da0b42d79a5487f5af438fc213c841ef35130",
    "background_overlay-9-1-noise_amplitude=0.05-s11": "256020a98757884d7cd41339f51e3626db705380bfca6ab58ebd9e6c09664543",
    "background_overlay-9-1-noise_amplitude=0.5-s0": "686760b11e22e2071f8692c245660f1ca609d5255c1c33925b6cc2071c3f2e97",
    "background_overlay-9-1-noise_amplitude=0.5-s11": "0e0edbfc045768864e217252d37361c53054aa8e01d7aadb4b579e6eabc5b218",
    "background_overlay-9-1-noise_amplitude=1.0-s0": "c6154a29bdf6ecb9314bb43492c719e794197f0064b7f239b0afc9e54ae2ca0b",
    "background_overlay-9-1-noise_amplitude=1.0-s11": "22c2dd3b9ba8d43632d7d3a743dc1e4561effc086994b9ab80566c2704138dd7",
    "scale_recenter-9-1-inner=1-s0": "ae458bd15003114cd7eedebbd2c02608e2f93ecfcb46889f9afac91723f78167",
    "scale_recenter-9-1-inner=1-s11": "dba2739a82d527050b60f4fab6cfb488339fbf2452fc43076479d496debca5bd",
    "scale_recenter-9-1-inner=2-s0": "485a5911df4cb9e51dd17c92bed92ddde9d4b940d487ad124cbae07bc5cdfa56",
    "scale_recenter-9-1-inner=2-s11": "548a24703e0048c7298f7928067703fce87e0a2a807a2d5f9b86d888095a9510",
    "scale_recenter-9-1-inner=4-s0": "0278927f0ac87b0e401de77af9a1548b3d9274e22f2e135c16686c14df9a5d2e",
    "scale_recenter-9-1-inner=4-s11": "4791843e3711b1fcef645da7faef2281d26ca90681b412a62eddbb2ed2627c37",
    "scale_recenter-9-1-inner=8-s0": "dbc29fe1cd678f2e56eecaf93ed73b0a45a360fa13718fe9df101165091f36a6",
    "scale_recenter-9-1-inner=8-s11": "986467aadbf918e967ad9192d3d895ea4413ede8b814daac378e65848947cfde",
    "scale_recenter-9-1-inner=9-s0": "1daf901d7636ff4fc9ad73ace7823eb43c96f3fe85b32de9ebce1d8265fcce26",
    "scale_recenter-9-1-inner=9-s11": "c59ed90939698b9b4c36f667f2bb81977deda6da0d86f93d2c3b220f4afc2d41",
    "background_overlay-9-3-noise_amplitude=0.05-s0": "fad7c616a119b283574a776a822842941d14974e1914340d62c14b4f8b2d6bf6",
    "background_overlay-9-3-noise_amplitude=0.05-s11": "b7cd73991585ceda4b0c474746d0f589bf5784f8351aa1c185d45389619fd647",
    "background_overlay-9-3-noise_amplitude=0.5-s0": "3393da184bc948e751e37add66a4ead2cdfdd82389798f8b2d339a1c480ea09a",
    "background_overlay-9-3-noise_amplitude=0.5-s11": "6f103807001f5d9a39a2041a881ca6821ebf543b262925a89b2f5bdf5520bf8e",
    "background_overlay-9-3-noise_amplitude=1.0-s0": "3307e1687e64ede7007c1f31d47b561e665611a71a0f9a87b3d365aeb03eec94",
    "background_overlay-9-3-noise_amplitude=1.0-s11": "6958cc433beddbc5573baf4385e70efd76e29a1ff70d968c7b6ac887e7ad4e25",
    "scale_recenter-9-3-inner=1-s0": "f8525c38f1f12551ad24c3a5ec4cb5f6578b5c6f2b441e353420d33645783ec6",
    "scale_recenter-9-3-inner=1-s11": "8056ed0b79775b673506cc98208cd11095e3da5b280f4e9bbbd3ac788929bd77",
    "scale_recenter-9-3-inner=2-s0": "b519cabf19ae9be1f1f6f31015d1562e85b91c278c84c0228f36dc8f167a3965",
    "scale_recenter-9-3-inner=2-s11": "38fe37b883ac77e0a7d358e31306a2ca44b72d779396f67ddc4443b58960dcbd",
    "scale_recenter-9-3-inner=4-s0": "f09f39051c882e981df753dc27200cec85cb8995bff41d50ef3b2f2fe97024e9",
    "scale_recenter-9-3-inner=4-s11": "761644b8f32d35f5999ca3c08bbb5be7db6abac78810fd27eda10eec7632147d",
    "scale_recenter-9-3-inner=8-s0": "f1feeaab86d8d190c2fbed9f7e60dc05736307c5f595ddf1ff64e4bf6b3c13a3",
    "scale_recenter-9-3-inner=8-s11": "29421a757d06bbca0c67de289e1c2ae6722880593b5bda399d7206894dca5ebd",
    "scale_recenter-9-3-inner=9-s0": "c4f481ae410398ffe720d789431a8d6efbb4e9f381a9c4607da303734981fef1",
    "scale_recenter-9-3-inner=9-s11": "c80e1f659122804a81b41fff8a885eba44b14fcbddce1cfb90f28cacda7d2824",
    "channel_stack-9-1-shift_px=1-s0": "8487089a6f12ac64a77f49e9d659957f2c6e0ee91b00bf9caf2b65ea29fe5879",
    "channel_stack-9-1-shift_px=1-s11": "a39e158c92fd943d9be222958a89595de89abe0b814644904f9a92cb9ea40d9a",
    "channel_stack-9-1-shift_px=2-s0": "d3b8922702801ab0334f1fc729d1664cb8d350f739c0510b8fcdeb5f2c19f446",
    "channel_stack-9-1-shift_px=2-s11": "65a43034fd59c8b0976e54fc8730af7cce989be50c22358f6e4fb8fb9a552473",
    "channel_stack-9-1-shift_px=3-s0": "897fc5fd8c5c6868d61268b6509188e55e3485713c60ad7f108f03101602d4eb",
    "channel_stack-9-1-shift_px=3-s11": "8b91a2c03f9524b85942a9a8818dae4b6c15e7a430d29ccced3686f55242abff",
    "channel_stack-9-1-shift_px=4-s0": "81c55b741c806fa2ec88f4d001f3c26391e534ba8e7fc0056631b00b9e040693",
    "channel_stack-9-1-shift_px=4-s11": "0f9376cdda1e7db05b6916f63250ca16890a1e58173ed065f3fdf92d17f948e3",
    "background_overlay-16-1-noise_amplitude=0.05-s0": "798272fd0106dc6a194d64f4c9ca23856d792dc5b8231f05c2830d21fb083adc",
    "background_overlay-16-1-noise_amplitude=0.05-s11": "7b547c559d237de66c5f395b1eb6d8ea18f0c8c3603f6a388e1071c23d1027eb",
    "background_overlay-16-1-noise_amplitude=0.5-s0": "fb3d2fe5d3056c1e27191d06b7943280d8ddea6ab6440076421f0a1ad9bff1e1",
    "background_overlay-16-1-noise_amplitude=0.5-s11": "38da575aa9f221384bbeeadb2824ddfcf95c08f1f5d05693cd4f8469f18533f0",
    "background_overlay-16-1-noise_amplitude=1.0-s0": "a50b288e0c59b091f3a3efc2642027716aeeb0e45cef7cd24410f832d87300f5",
    "background_overlay-16-1-noise_amplitude=1.0-s11": "f9702c49ac61292ee88e76e1e496bd5cfd7ce3bbbddc91c56087df2c77e1457b",
    "scale_recenter-16-1-inner=1-s0": "d9223c5c581c63aac341b762fbcd036f3d6e49e9e550473f8d18e574909ded43",
    "scale_recenter-16-1-inner=1-s11": "220de07920b93e41469e76c00fc454e9c2a71e21352403a4547d851cf1b6a909",
    "scale_recenter-16-1-inner=2-s0": "30b7f33a812a4ed7ee14828e8eb40533e25aed1fae5accaa49705df3122ccbce",
    "scale_recenter-16-1-inner=2-s11": "5c0be6ecd0c8b355fdcd3005d460d57ba1ec4da000efc62840eb071f11eeb131",
    "scale_recenter-16-1-inner=8-s0": "8f1bd6d038168dc6617ba4ffb053c84e8bc012d8e56571778e96932be7514d23",
    "scale_recenter-16-1-inner=8-s11": "aa8dd729ed579d437d0a81e3212b3565bcf72f0415db5b46673e047d2260dc55",
    "scale_recenter-16-1-inner=15-s0": "c6f3fdb12998d3142c40d6a1f9b14d071ef4dba4ac9579ec8da503bb0e221c30",
    "scale_recenter-16-1-inner=15-s11": "c788187df59bda7abcd82e85e939071658494903fcfd53953c9fa2c278e4fda1",
    "scale_recenter-16-1-inner=16-s0": "e7822458f13b08f13a04dcab1163d40a73ecc3f98a5cd5482ffb84c3e3d3af3b",
    "scale_recenter-16-1-inner=16-s11": "abf64e57d34a70f28daa622c668ff23945dd8a096bc47191dc72a0ae3ec688f9",
    "background_overlay-16-3-noise_amplitude=0.05-s0": "448f87128ff3c54573e9c77e7e8c4cc8fb764fe16178b792417275f6bc295ab1",
    "background_overlay-16-3-noise_amplitude=0.05-s11": "6898cbd5f2767252802c1e0c87b08724b980f122e69230d55235ec51020966ae",
    "background_overlay-16-3-noise_amplitude=0.5-s0": "ba1562a21fb20c1755b6d9e920f4fabd38fd02c254e63748bb7fdeecc52fc7c2",
    "background_overlay-16-3-noise_amplitude=0.5-s11": "6caa51cc688ffd024a6c7a335db273787e901678ae1c60ff5abf10db857593b0",
    "background_overlay-16-3-noise_amplitude=1.0-s0": "3d1e1ba44eda647a8c6de21684c3049515b465fbad68ed6e2b39e091b5e5a7e8",
    "background_overlay-16-3-noise_amplitude=1.0-s11": "ca4fcc0614d560c08347159cfd903754ce1be38d20a02fc31a9b9c29c688d18c",
    "scale_recenter-16-3-inner=1-s0": "1f9d304ce4115906a891d9be7f8503630532817e57bf1993c29affb45a9b8b81",
    "scale_recenter-16-3-inner=1-s11": "80df3cfe9f045e516f9f6ae7281008688a4359506b9e66988a3204c1565f9052",
    "scale_recenter-16-3-inner=2-s0": "8a3aa7b99cb58f09d74d045899a99254006b7687ac7bda925187637917fc86ab",
    "scale_recenter-16-3-inner=2-s11": "971134dde3350cb0dfb31bed29c51372218b6224f5419f671e34d20061289ca6",
    "scale_recenter-16-3-inner=8-s0": "cc7a3db3440fecd7db7f110733d6d6ffaaad156746d8a2f70b8917e81a0faec9",
    "scale_recenter-16-3-inner=8-s11": "4b76a8428b030d669748d8dc7651befda870460552d0d8a96bbf7e397960662e",
    "scale_recenter-16-3-inner=15-s0": "da1e3096ffa57c1b8ff9808611a908f908932b9ae3f96b755b47ad0a3217a354",
    "scale_recenter-16-3-inner=15-s11": "209eab2d2ada720617608508b75031450af9e5c694a1852fd75269c3b826ed91",
    "scale_recenter-16-3-inner=16-s0": "e2784d6d6f55fc5b476344cc4c2112a6d62b9ac91f73cb872c839b38fdb4b063",
    "scale_recenter-16-3-inner=16-s11": "22a517d2586dcac3750f73305a779ec13041d50d770069c567f557ad0d8c9fe6",
    "channel_stack-16-1-shift_px=1-s0": "718c9ef04fe49c55056dc6e17bf1a248a284230b3fe60e256dd3e62f2b17bd6e",
    "channel_stack-16-1-shift_px=1-s11": "a059eabfd80a62b7fb883f33d9d144fa5dd22120ebf6f231071f8febaa1865f2",
    "channel_stack-16-1-shift_px=2-s0": "5b8c8bd8ba7c1592e19509ab728b6190b44356999ba9c184db0e87700754e7e3",
    "channel_stack-16-1-shift_px=2-s11": "6a9ef9de4d15a4dc408710356607fb4b17f021c1038667f76ddeeea63e543ae3",
    "channel_stack-16-1-shift_px=3-s0": "7cc466aa2426a61e8c8818342156596b4ff38a4e18ba42e7aadff835255d419b",
    "channel_stack-16-1-shift_px=3-s11": "2f2283690686b34f34ef06c077703c91b6aabdf4b098cfeab14b214d5db1fcb4",
    "channel_stack-16-1-shift_px=4-s0": "db581f4e0af4ac4d59e0015bd2f693b046fe20a6fd83e7d08db650347fcdd305",
    "channel_stack-16-1-shift_px=4-s11": "8cdad64642c6130a5d954e241b347aa8d02f7f05409523452a5c4b37266e0737",
    "channel_stack-16-1-shift_px=5-s0": "b7364cc6003fb26ac81fe603098407049d9444bce954a56afaaf823c8e7da987",
    "channel_stack-16-1-shift_px=5-s11": "c7393d35803efab3e030978acc415fb0e635037a0fe954396da57b0ca78f07c4",
    "channel_stack-16-1-shift_px=6-s0": "a3479efd8d0eae7ad37f2656fff5e94d40071ec4a5c7e553a8ec9b9d5af5b4ca",
    "channel_stack-16-1-shift_px=6-s11": "8ea389d0a0358f3f82ec7b9837e1ddf0f4b4967c0cc637df17a68815ce5a8277",
    "channel_stack-16-1-shift_px=7-s0": "d713856e779a03d95bcb05db116dee06fe6b8d294377747beced373f9f6de0e7",
    "channel_stack-16-1-shift_px=7-s11": "059d4de90b8473b736a28900d61545ca0e39dfb1f958dbdaa6c471d925d60fe7",
    "background_overlay-23-1-noise_amplitude=0.05-s0": "8575ff14808d3bd54aa8733d3a9a5925b30cdf5fcc124abbb13560cde3504f0d",
    "background_overlay-23-1-noise_amplitude=0.05-s11": "129d5ff2efc247db548c49ac0008877201dd5bf80027a62dbe8389c9bce96256",
    "background_overlay-23-1-noise_amplitude=0.5-s0": "37e59bfe7c9555eb464ffc2a04e8c45a8863b57e1e94c47ae0835258b3b132be",
    "background_overlay-23-1-noise_amplitude=0.5-s11": "33a6c3c9237bf69a6ef52a26787f1c0d615745b995c7e0f8fba804a509135497",
    "background_overlay-23-1-noise_amplitude=1.0-s0": "0d13b4752d7839c002f9d3da6a0006696a635d12e36b65f06f95b72d5774aba3",
    "background_overlay-23-1-noise_amplitude=1.0-s11": "17a8f7642b22ceef5354669e7b369ffbfbe685cc87b618cfabb5291781e4b9df",
    "scale_recenter-23-1-inner=1-s0": "481f812edb999f30ef5817934d5fe82017fa4e3c0033a9f423f9b9eaa9d8c084",
    "scale_recenter-23-1-inner=1-s11": "b5f1b9f3e29ffa8e01c59e99f9f7f602f0d8ee52baa0478ddacf028f52179261",
    "scale_recenter-23-1-inner=2-s0": "8eb1646c12a33094be507b6a257cf3b46ff1db163c73bf4b7e7e2bb5abcafe93",
    "scale_recenter-23-1-inner=2-s11": "cbe7b7e5f3c92f763c04fbbd4e965194e15db424befd845ad947748194254b5b",
    "scale_recenter-23-1-inner=11-s0": "1537357080a9241aa8dc9ba17c02caad57eb7728a228439ce0ea7e5c32577f33",
    "scale_recenter-23-1-inner=11-s11": "cedbf4565db8b0a8359853a12033f3d7c6c5aa17d7698d36edf4e64a77ba8336",
    "scale_recenter-23-1-inner=22-s0": "4a0cc095877c97f03c3bccb76c540289642458c2d8cfde9bd49c44213fae5b4b",
    "scale_recenter-23-1-inner=22-s11": "f1fc5b0998e042f6a4610fb651303e49abe1b6a6f72583368c44249e7e1ba00c",
    "scale_recenter-23-1-inner=23-s0": "9f261f5da47a941d9f162aa7bf77cd62873af0e5ba9c85923fdcfaed2856ff9b",
    "scale_recenter-23-1-inner=23-s11": "3e2f98e26490b5b4b8a1317b05baf337ca606027ec2f34e857eb1c91617ab73b",
    "background_overlay-23-3-noise_amplitude=0.05-s0": "e91a956837e3c83d49485b8f83f3558eb42894472f6b27a89bbc7773f59486f8",
    "background_overlay-23-3-noise_amplitude=0.05-s11": "b01ae64f1dc03b0a4999ac64e723b1eb1c43c222a278f69592934ee917856989",
    "background_overlay-23-3-noise_amplitude=0.5-s0": "98e7075436f014e14931e8ecce5a0af02939cbacf70e8b310b9b624e2d92b8cc",
    "background_overlay-23-3-noise_amplitude=0.5-s11": "fbaf934eec79156d19261fb8423a25ff254077d4c36c49be5e418fbb13a09ac5",
    "background_overlay-23-3-noise_amplitude=1.0-s0": "57e134ffde25d747eae9295f7f4d3bbe22914252f87f3dc467e351cfc9d87783",
    "background_overlay-23-3-noise_amplitude=1.0-s11": "a71e9442e09569002f29d57897776c5a4aa4435f44c5c3c07c512be6c060db06",
    "scale_recenter-23-3-inner=1-s0": "6fec0476a7da540f15ee7c7a6215cc17574321fa77e77eb8c7aac0aabb3a96f7",
    "scale_recenter-23-3-inner=1-s11": "eb0ceb3944f2b08279e0e20d5fc694882ca74701ab4c0f7ad5086a24269aec37",
    "scale_recenter-23-3-inner=2-s0": "b77c588156acb2fa4b4ac6b4f2b727dad9082b4e50c198ec5a8b456e34716b9b",
    "scale_recenter-23-3-inner=2-s11": "2644c9a3868aaf9b11057a9076d75a215fc04c613a93ad29baa32c0da47803ed",
    "scale_recenter-23-3-inner=11-s0": "9e0a252a0737624868bb3c92bfc286ba5c941da6a2e5fe91e355912bde0fc72b",
    "scale_recenter-23-3-inner=11-s11": "cc41564c445fcf18a3ceaffa63f9fb17a9663b542b035b7ef7d46346aa836083",
    "scale_recenter-23-3-inner=22-s0": "f939c656d9357886ee99477324277498a7a032a193a42c41e7405cfe24fba8ab",
    "scale_recenter-23-3-inner=22-s11": "fbe2bbf5d094c028c55e67a4f3d7aad33496d5dcca9c696b5af1fdb2081fcfc6",
    "scale_recenter-23-3-inner=23-s0": "c9fbd88b8e2da7dc1941b66662e27831082bdfa35de488a05a26afab000c165a",
    "scale_recenter-23-3-inner=23-s11": "ac93c2f5fe0ace70fa5f6aed65b8afa8a50cb525cb47461624a15ccee9e7ada5",
    "channel_stack-23-1-shift_px=1-s0": "cb3d41406b581a1bd9aded787896ab20fcefa662430882e13bb9cc8d6463db7e",
    "channel_stack-23-1-shift_px=1-s11": "44786904dc8ecc3112ba465570e6c57801f74cbdc3237b8bc15a3a9779aeb250",
    "channel_stack-23-1-shift_px=2-s0": "9785f8b74494cdcdd70f592df95c3ac57d77d6f7e0ab83da20edf873b273c848",
    "channel_stack-23-1-shift_px=2-s11": "ffa60cac5ef52498d3832bfc4aaaf76a0dd4417c9c4e4992c0978535aae0464d",
    "channel_stack-23-1-shift_px=3-s0": "4e50ae8643c037ae9b752f4686274fd5877b60f1eb15b1096adeb3c4060f5bbf",
    "channel_stack-23-1-shift_px=3-s11": "f88d4bfa67460c7942fc2f5dfb058bca59de2a24af20832f2c07784076254a29",
    "channel_stack-23-1-shift_px=4-s0": "f118f776407eddfdd34275e3759164bcb3af3306182043be21b5446875972903",
    "channel_stack-23-1-shift_px=4-s11": "1efc0016bf89f5610b203da25b7cd28554f67b3c2522ab882d4085f4813506b9",
    "channel_stack-23-1-shift_px=5-s0": "f299eba7de29dac107ba590e618f9ef00261be63c1aa12e9b190b1d12320c85e",
    "channel_stack-23-1-shift_px=5-s11": "54d4501d226fa9e115537e761d7fc2298b24d7228353896a41881f8e5769ac28",
    "channel_stack-23-1-shift_px=6-s0": "e83bcc413cca14186c892a1524258ea92f619a8252e40d259e4ab2755a2b56a6",
    "channel_stack-23-1-shift_px=6-s11": "a23ff351d59f6f7baa50187b121246f63ce31e5510191b1bb26930ae7aa39c9a",
    "channel_stack-23-1-shift_px=7-s0": "69fcee06350a5edad392eecca6299d2ee5b4ede38368ff6b43a1051fde5e6407",
    "channel_stack-23-1-shift_px=7-s11": "096089f87bf8d6424793cd1571078195dd0e56ae0a6501cd5ad79d26ce26582b",
    "channel_stack-23-1-shift_px=8-s0": "5a1045c7ac444ae4269e1600001f6a71e9fde0d68fa4b6eeb7c3d6bb62f861f3",
    "channel_stack-23-1-shift_px=8-s11": "e4d64b5eec715f838bd09e4d5320517a8f477558f32702e6d71f68a48c5feac2",
    "channel_stack-23-1-shift_px=9-s0": "d1f88e2fe9485e322835edf15a4796a7f96c53235209595cd4131ae627a53a0e",
    "channel_stack-23-1-shift_px=9-s11": "ac41210a8299b042b0cd35afa1b555b21b7afe04341ee7b3feb924711e7a7bc6",
    "channel_stack-23-1-shift_px=10-s0": "961d2b1565b9c4ae245ec4592c2b255069e7aa081ee62f3cac44b473b16696ef",
    "channel_stack-23-1-shift_px=10-s11": "891b0084e23fa37c296626d4209954bc37ca12a95061bf7c02bccae3c15aac09",
    "channel_stack-23-1-shift_px=11-s0": "9df51770ab6ea414a14a857857d7cdd7c984f3b8abd57e2f89f407b5f2142767",
    "channel_stack-23-1-shift_px=11-s11": "dfaa728485d5fb411c6a19b35062e24bf3641de0b07ef6478e5a68e67d82794d",
}

CHAIN_DIGESTS = {
    "overlay_then_stack-s0": "cd1a499b49d7cd246b054b7d2c7d2b3c8bb62cbc260b6dd91542143f4cf5ac92",
    "overlay_then_stack-s11": "81fcc3fe0c5faefe1a9ce10dd2a085b9d30b6c48203a54caa11eb6cb053e39f0",
    "recenter_then_stack-s0": "c4853426ed9e5dd2cc98982fe52b92c8473e84e3c9489b9633d46a23b605383e",
    "recenter_then_stack-s11": "79ab107332d09628277b7fafc198abe4d9292641675bef5d4e774c82db56d4c9",
    "stack_then_overlay-s0": "01e937d2249ca818f2af750019f3c3c8ba9904c9364f86fd5c7fac016f30b8e7",
    "stack_then_overlay-s11": "585d22a9fe99fa64edcac07e58531c028c2339bdca3a99aa141c2bb68c10b073",
}


@pytest.mark.parametrize("case", glyph_cases(), ids=case_id)
def test_glyph_domain_bytes_match_golden(case):
    _, c, k, canvas, ch, seed = case
    d = gen_glyph_domain(c, k, canvas, channels=ch, seed=seed)
    assert d.raster_shape == (ch, canvas, canvas)
    assert digest(d) == GLYPH_DIGESTS[case_id(case)]


@pytest.mark.parametrize("case", transform_cases(), ids=case_id)
@pytest.mark.parametrize("seed", (0, 11))
def test_raster_transform_bytes_match_golden(case, seed):
    kind, canvas, ch, params = case
    base = gen_glyph_domain(3, 8, canvas, channels=ch, seed=seed)
    d = apply_transform_chain(base, TransformSpec(kind, params, seed=seed))
    assert digest(d) == TRANSFORM_DIGESTS[f"{case_id(case)}-s{seed}"]


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("seed", (0, 11))
def test_transform_chain_bytes_match_golden(name, seed):
    base = gen_glyph_domain(6, 10, 16, channels=1, seed=seed)
    d = apply_transform_chain(base, CHAINS[name])
    assert digest(d) == CHAIN_DIGESTS[f"{name}-s{seed}"]


# (_DOMAIN_CACHE_VERSION, sha256 of the digest tables) when they were taken
DIGESTS_PIN = (2, "ddfceb635a391ef3db8e3968d6a8d36ff28f05469529cefde017360a246f7e6e")


def test_retaken_digests_come_with_a_cache_version_bump():
    """Re-taking a digest changes the tables' hash: pin the new hash together
    with a bumped cache version, or cached domains of the old bytes are reused."""
    tables = repr([sorted(t.items()) for t in (GLYPH_DIGESTS, TRANSFORM_DIGESTS, CHAIN_DIGESTS)])
    assert (_DOMAIN_CACHE_VERSION, hashlib.sha256(tables.encode()).hexdigest()) == DIGESTS_PIN
