_start:
  0x00400000: jal 0x40007c
  0x00400004: break
smooth:
  0x00400008: addu $v1, $a0, $zero
  0x0040000c: addiu $t9, $zero, 0
  0x00400010: addiu $v1, $zero, 1
  0x00400014: beq $zero, $zero, +20
  0x00400018: lui $t8, 4096
  0x0040001c: addiu $t7, $v1, -1
  0x00400020: sll $t6, $t7, 2
  0x00400024: addu $t7, $t8, $t6
  0x00400028: lw $t6, 0($t7)
  0x0040002c: sll $t7, $v1, 2
  0x00400030: addu $t5, $t8, $t7
  0x00400034: lw $t7, 0($t5)
  0x00400038: sll $t5, $t7, 1
  0x0040003c: addu $t7, $t6, $t5
  0x00400040: addiu $t5, $v1, 1
  0x00400044: sll $t6, $t5, 2
  0x00400048: addu $t5, $t8, $t6
  0x0040004c: lw $t6, 0($t5)
  0x00400050: addu $t5, $t7, $t6
  0x00400054: sra $t6, $t5, 2
  0x00400058: addu $t5, $t9, $t6
  0x0040005c: addu $t9, $t5, $zero
  0x00400060: addiu $t5, $v1, 1
  0x00400064: addu $v1, $t5, $zero
  0x00400068: slti $at, $v1, 63
  0x0040006c: bne $at, $zero, -22
  0x00400070: addu $v0, $t9, $zero
  0x00400074: beq $zero, $zero, +0
  0x00400078: jr $ra
main:
  0x0040007c: addiu $sp, $sp, -16
  0x00400080: sw $ra, 8($sp)
  0x00400084: sw $s6, 0($sp)
  0x00400088: sw $s7, 4($sp)
  0x0040008c: addiu $v1, $zero, 7
  0x00400090: addiu $t9, $zero, 0
  0x00400094: beq $zero, $zero, +13
  0x00400098: addiu $k1, $zero, 1103
  0x0040009c: mult $v1, $k1
  0x004000a0: mflo $t8
  0x004000a4: addiu $t7, $t8, 12345
  0x004000a8: addu $v1, $t7, $zero
  0x004000ac: sra $t8, $t7, 8
  0x004000b0: andi $t7, $t8, 255
  0x004000b4: lui $t8, 4096
  0x004000b8: sll $t6, $t9, 2
  0x004000bc: addu $t5, $t8, $t6
  0x004000c0: sw $t7, 0($t5)
  0x004000c4: addiu $t5, $t9, 1
  0x004000c8: addu $t9, $t5, $zero
  0x004000cc: slti $at, $t9, 64
  0x004000d0: bne $at, $zero, -15
  0x004000d4: addiu $s7, $zero, 0
  0x004000d8: addiu $s6, $zero, 0
  0x004000dc: beq $zero, $zero, +7
  0x004000e0: addiu $a0, $zero, 64
  0x004000e4: jal 0x400008
  0x004000e8: addu $t5, $v0, $zero
  0x004000ec: addu $t9, $s7, $t5
  0x004000f0: addu $s7, $t9, $zero
  0x004000f4: addiu $t9, $s6, 1
  0x004000f8: addu $s6, $t9, $zero
  0x004000fc: slti $at, $s6, 50
  0x00400100: bne $at, $zero, -9
  0x00400104: andi $t9, $s7, 65535
  0x00400108: addu $v0, $t9, $zero
  0x0040010c: beq $zero, $zero, +0
  0x00400110: lw $s6, 0($sp)
  0x00400114: lw $s7, 4($sp)
  0x00400118: lw $ra, 8($sp)
  0x0040011c: addiu $sp, $sp, 16
  0x00400120: jr $ra
